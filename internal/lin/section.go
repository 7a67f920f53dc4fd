package lin

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// DimVar returns the canonical variable name for the i-th (0-based) array
// dimension inside a section's constraint systems.
func DimVar(i int) string {
	if i < len(dimVars) {
		return dimVars[i]
	}
	return fmt.Sprintf("$d%d", i)
}

var dimVars = [...]string{"$d0", "$d1", "$d2", "$d3", "$d4", "$d5", "$d6", "$d7"}

// IsDimVar reports whether v names an array dimension variable.
func IsDimVar(v string) bool { return strings.HasPrefix(v, "$d") }

// A Section describes the set of elements of one array touched by some code
// region: a union of polyhedra over the dimension variables $d0..$d{n-1} and
// any symbolic program variables (loop indices, bounds). An empty Polys slice
// is the empty section. Exact == false marks a conservative over-approximation
// (e.g. a non-affine subscript widened to the whole dimension).
//
// A Section is a value nobody writes: once the function that built it has
// returned, neither its fields nor its Polys slice change (DESIGN.md, "Who may
// write a section"). So summaries, liveness results and cached analyses share
// sections, and an operation below returns an operand in place of the section
// it would have built exactly when the two have the same NDim, Exact and
// polyhedra in the same order.
type Section struct {
	NDim  int
	Polys []*System
	Exact bool

	// norm marks Polys as a fixpoint of the normalising fold (fold.add): no
	// polyhedron is empty and none is contained in another, so folding Polys
	// into an empty union gives back Polys itself. Only the folds below and
	// EmptySection set it; a section built any other way is folded again
	// where the fold would run.
	norm bool
}

// emptySections[n] is the empty n-dimensional section every caller shares.
var emptySections = func() (out [len(dimVars)]Section) {
	for n := range out {
		out[n] = Section{NDim: n, Exact: true, norm: true}
	}
	return out
}()

// EmptySection returns the empty section for an ndim-dimensional array.
func EmptySection(ndim int) *Section {
	if ndim < len(emptySections) {
		return &emptySections[ndim]
	}
	return &Section{NDim: ndim, Exact: true, norm: true}
}

// WholeSection returns the section covering the entire array (no constraints
// on the dimension variables), marked inexact.
func WholeSection(ndim int) *Section {
	return &Section{NDim: ndim, Polys: []*System{NewSystem()}, Exact: false}
}

// NewSection returns a section consisting of the single polyhedron sys.
func NewSection(ndim int, sys *System) *Section {
	return &Section{NDim: ndim, Polys: []*System{sys}, Exact: true}
}

// share returns the section ⟨ndim, polys, exact⟩: the first operand that
// already is that section, else a new one that takes polys over, marked
// normalised when norm is set.
func share(ndim int, polys []*System, exact, norm bool, operands ...*Section) *Section {
	for _, o := range operands {
		if o.NDim == ndim && o.Exact == exact && slices.Equal(o.Polys, polys) {
			return o
		}
	}
	return &Section{NDim: ndim, Polys: polys, Exact: exact, norm: norm}
}

// IsEmpty reports whether the section is definitely empty.
func (s *Section) IsEmpty() bool {
	for _, p := range s.Polys {
		if !p.IsEmpty() {
			return false
		}
	}
	return true
}

// Union returns s ∪ o, merging polyhedra subsumed by existing ones. ∅ ∪ o
// is o itself when o is normalised: the fold would give back its polyhedra.
func (s *Section) Union(o *Section) *Section {
	if len(s.Polys) == 0 && o.norm && o.NDim == s.NDim && (s.Exact || !o.Exact) {
		return o
	}
	f := fold{polys: s.Polys, room: len(s.Polys) + len(o.Polys)}
	for _, p := range o.Polys {
		f.add(p)
	}
	// The fold keeps a normalised start normalised.
	return share(s.NDim, f.polys, s.Exact && o.Exact, s.norm || len(s.Polys) == 0, s, o)
}

// A fold accumulates a union of polyhedra: add drops a polyhedron that is
// empty or contained in one already there, and otherwise appends it after
// dropping the ones it contains. The slice it starts from is never written;
// the first polyhedron that changes the union moves it into a slice of room
// elements the fold owns, and the rest are filtered and appended there in
// place, so a union costs one slice however many polyhedra it adds.
type fold struct {
	polys []*System
	owned bool // polys is the fold's own slice
	room  int  // capacity of the owned slice, when it is made
}

func (f *fold) add(p *System) {
	if p.IsEmpty() {
		return
	}
	for _, q := range f.polys {
		if p.ContainedIn(q) {
			return
		}
	}
	dst := f.polys[:0]
	if !f.owned {
		dst = make([]*System, 0, max(f.room, len(f.polys)+1))
		f.owned = true
	}
	for _, q := range f.polys {
		if !q.ContainedIn(p) {
			dst = append(dst, q)
		}
	}
	f.polys = append(dst, p)
}

// Intersect returns s ∩ o (pairwise polyhedron intersection).
func (s *Section) Intersect(o *Section) *Section {
	f := fold{room: len(s.Polys) * len(o.Polys)}
	for _, p := range s.Polys {
		for _, q := range o.Polys {
			f.add(p.Intersect(q))
		}
	}
	return share(s.NDim, f.polys, s.Exact && o.Exact, true, s, o)
}

// Intersects reports whether s ∩ o may be nonempty (conservative: false means
// definitely disjoint).
func (s *Section) Intersects(o *Section) bool { return !s.Intersect(o).IsEmpty() }

// ContainedIn reports whether s ⊆ o definitely holds. Each polyhedron of s
// must be contained in a single polyhedron of o (sound but incomplete for
// genuinely split covers).
func (s *Section) ContainedIn(o *Section) bool {
	for _, p := range s.Polys {
		ok := false
		for _, q := range o.Polys {
			if p.ContainedIn(q) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Subtract returns an over-approximation of s \ o. Each polyhedron of o is
// subtracted in turn: polyhedra of s wholly contained are dropped, and a cut
// is performed exactly when it stays convex (the covering polyhedron differs
// along a single constraint); otherwise the minuend polyhedron is kept whole.
// This is sound for upwards-exposed-read computation, which must
// over-approximate. What is left of s is an over-approximation even when
// nothing was cut, so only the empty result is exact; s − ∅ of a normalised s
// is s with that flag.
func (s *Section) Subtract(o *Section) *Section {
	if len(o.Polys) == 0 && s.norm {
		return share(s.NDim, s.Polys, len(s.Polys) == 0, true, s)
	}
	cur := s.Polys
	for _, q := range o.Polys {
		var next []*System
		for _, p := range cur {
			if p.ContainedIn(q) {
				continue
			}
			if cut, ok := exactCut(p, q); ok {
				next = append(next, cut...)
				continue
			}
			next = append(next, p)
		}
		cur = next
	}
	f := fold{room: len(cur)}
	for _, p := range cur {
		f.add(p)
	}
	return share(s.NDim, f.polys, len(f.polys) == 0, true, s)
}

// exactCut computes p \ q as the union of p ∧ ¬c over the constraints c of
// q not already implied by p — which is exactly p \ q (a point escapes q iff
// it violates some constraint). Returns ok=false (keep p whole) when more
// than maxCutConstraints constraints are missing, to bound the blowup.
func exactCut(p, q *System) ([]*System, bool) {
	const maxCutConstraints = 4
	var missing []Constraint
	for _, c := range q.Cons {
		if !p.Implies(c) {
			missing = append(missing, c)
			if len(missing) > maxCutConstraints {
				return nil, false
			}
		}
	}
	var out []*System
	for _, c := range missing {
		r := &System{Cons: append(make([]Constraint, 0, len(p.Cons)+1), p.Cons...)}
		r.AddGE(c.E.Scale(-1).AddConst(-1)) // ¬(e>=0) is -e-1 >= 0
		if !r.IsEmpty() {
			out = append(out, r)
		}
	}
	return out, true
}

// Project eliminates the given variables (typically a loop index) from every
// polyhedron — the paper's closure operator at loop boundaries. It is the
// one-shot case of a Projection.
func (s *Section) Project(vars ...string) *Section {
	pj := Projection{vars: vars}
	return pj.Section(s)
}

// A Projection eliminates one list of variables from sections and
// polyhedra. One made by NewProjection remembers what it has projected, so
// that a section or polyhedron several summary fields share (a leaf's read
// lands in R, E and Plain as one section) is eliminated once.
type Projection struct {
	vars []string
	sys  map[*System]*System
	secs map[*Section]*Section
}

// NewProjection returns a remembering Projection of vars.
func NewProjection(vars ...string) *Projection {
	return &Projection{vars: vars, sys: map[*System]*System{}, secs: map[*Section]*Section{}}
}

// System returns p with the projection's variables eliminated.
func (pj *Projection) System(p *System) *System {
	if q, ok := pj.sys[p]; ok {
		return q
	}
	q := p.EliminateVars(pj.vars...)
	if pj.sys != nil {
		pj.sys[p] = q
	}
	return q
}

// Section returns s with the projection's variables eliminated from every
// polyhedron.
func (pj *Projection) Section(s *Section) *Section {
	if r, ok := pj.secs[s]; ok {
		return r
	}
	f := fold{room: len(s.Polys)}
	for _, p := range s.Polys {
		f.add(pj.System(p))
	}
	r := share(s.NDim, f.polys, s.Exact, true, s)
	if pj.secs != nil {
		pj.secs[s] = r
	}
	return r
}

// Substitute applies a variable substitution to every polyhedron (parameter
// mapping across call sites).
func (s *Section) Substitute(v string, repl Expr) *Section {
	polys := make([]*System, len(s.Polys))
	for i, p := range s.Polys {
		polys[i] = p.Substitute(v, repl)
	}
	return share(s.NDim, polys, s.Exact, false, s)
}

// Rename renames a symbolic variable in every polyhedron.
func (s *Section) Rename(old, new string) *Section {
	polys := make([]*System, len(s.Polys))
	for i, p := range s.Polys {
		polys[i] = p.Rename(old, new)
	}
	return share(s.NDim, polys, s.Exact, false, s)
}

// SymVars returns the non-dimension variables mentioned in the section.
func (s *Section) SymVars() []string {
	var vs []string
	for _, p := range s.Polys {
		for _, c := range p.Cons {
			for _, t := range c.E.terms {
				if !IsDimVar(t.v) && !slices.Contains(vs, t.v) {
					vs = append(vs, t.v)
				}
			}
		}
	}
	slices.Sort(vs)
	return vs
}

// ContainsIndex reports whether the element with the given (0-based by
// convention of the caller) index tuple may belong to the section under the
// symbolic environment env.
func (s *Section) ContainsIndex(idx []int64, env map[string]int64) bool {
	full := make(map[string]int64, len(env)+len(idx))
	for k, v := range env {
		full[k] = v
	}
	for i, v := range idx {
		full[DimVar(i)] = v
	}
	for _, p := range s.Polys {
		ok := true
		for _, c := range p.Cons {
			val, err := c.E.Eval(full)
			if err != nil {
				// Unknown symbol: conservatively possible.
				ok = true
				break
			}
			if val < 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// String renders the section deterministically.
func (s *Section) String() string {
	if len(s.Polys) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.Polys))
	for i, p := range s.Polys {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	tag := ""
	if !s.Exact {
		tag = "~"
	}
	return tag + strings.Join(parts, " ∪ ")
}
