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
}

// emptySections[n] is the empty n-dimensional section every caller shares.
var emptySections = func() (out [len(dimVars)]Section) {
	for n := range out {
		out[n] = Section{NDim: n, Exact: true}
	}
	return out
}()

// EmptySection returns the empty section for an ndim-dimensional array.
func EmptySection(ndim int) *Section {
	if ndim < len(emptySections) {
		return &emptySections[ndim]
	}
	return &Section{NDim: ndim, Exact: true}
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
// already is that section, else a new one that takes polys over.
func share(ndim int, polys []*System, exact bool, operands ...*Section) *Section {
	for _, o := range operands {
		if o.NDim == ndim && o.Exact == exact && slices.Equal(o.Polys, polys) {
			return o
		}
	}
	return &Section{NDim: ndim, Polys: polys, Exact: exact}
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

// Union returns s ∪ o, merging polyhedra subsumed by existing ones.
func (s *Section) Union(o *Section) *Section {
	polys := s.Polys
	for _, p := range o.Polys {
		polys = addPoly(polys, p)
	}
	return share(s.NDim, polys, s.Exact && o.Exact, s, o)
}

// addPoly returns polys ∪ {p} without the polyhedra p subsumes: polys itself
// when p adds nothing, else a new slice — polys is never written.
func addPoly(polys []*System, p *System) []*System {
	if p.IsEmpty() {
		return polys
	}
	for _, q := range polys {
		if p.ContainedIn(q) {
			return polys
		}
	}
	out := make([]*System, 0, len(polys)+1)
	for _, q := range polys {
		if !q.ContainedIn(p) {
			out = append(out, q)
		}
	}
	return append(out, p)
}

// Intersect returns s ∩ o (pairwise polyhedron intersection).
func (s *Section) Intersect(o *Section) *Section {
	var polys []*System
	for _, p := range s.Polys {
		for _, q := range o.Polys {
			polys = addPoly(polys, p.Intersect(q))
		}
	}
	return share(s.NDim, polys, s.Exact && o.Exact, s, o)
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
// over-approximate.
func (s *Section) Subtract(o *Section) *Section {
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
	var polys []*System
	for _, p := range cur {
		polys = addPoly(polys, p)
	}
	// What is left of s is an over-approximation even when nothing was cut,
	// so only the empty result is exact.
	return share(s.NDim, polys, len(polys) == 0, s)
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
		r := p.Clone()
		r.AddGE(c.E.Scale(-1).AddConst(-1)) // ¬(e>=0) is -e-1 >= 0
		if !r.IsEmpty() {
			out = append(out, r)
		}
	}
	return out, true
}

// Project eliminates the given variables (typically a loop index) from every
// polyhedron — the paper's closure operator at loop boundaries.
func (s *Section) Project(vars ...string) *Section {
	var polys []*System
	for _, p := range s.Polys {
		polys = addPoly(polys, p.EliminateVars(vars...))
	}
	return share(s.NDim, polys, s.Exact, s)
}

// Substitute applies a variable substitution to every polyhedron (parameter
// mapping across call sites).
func (s *Section) Substitute(v string, repl Expr) *Section {
	polys := make([]*System, len(s.Polys))
	for i, p := range s.Polys {
		polys[i] = p.Substitute(v, repl)
	}
	return share(s.NDim, polys, s.Exact, s)
}

// Rename renames a symbolic variable in every polyhedron.
func (s *Section) Rename(old, new string) *Section {
	polys := make([]*System, len(s.Polys))
	for i, p := range s.Polys {
		polys[i] = p.Rename(old, new)
	}
	return share(s.NDim, polys, s.Exact, s)
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
