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
type Section struct {
	NDim  int
	Polys []*System
	Exact bool
}

// EmptySection returns the empty section for an ndim-dimensional array.
func EmptySection(ndim int) *Section { return &Section{NDim: ndim, Exact: true} }

// WholeSection returns the section covering the entire array (no constraints
// on the dimension variables), marked inexact.
func WholeSection(ndim int) *Section {
	return &Section{NDim: ndim, Polys: []*System{NewSystem()}, Exact: false}
}

// NewSection returns a section consisting of the single polyhedron sys.
func NewSection(ndim int, sys *System) *Section {
	return &Section{NDim: ndim, Polys: []*System{sys}, Exact: true}
}

// Clone returns an independent copy. The polyhedra are shared: a System
// stored in a Section is never mutated in place (all section and summary
// operations replace rather than update), so only the Polys slice needs to
// be fresh.
func (s *Section) Clone() *Section {
	out := &Section{NDim: s.NDim, Exact: s.Exact}
	if len(s.Polys) > 0 {
		out.Polys = append(make([]*System, 0, len(s.Polys)), s.Polys...)
	}
	return out
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
	out := s.Clone()
	out.Exact = s.Exact && o.Exact
	for _, p := range o.Polys {
		out.addPoly(p)
	}
	return out
}

func (s *Section) addPoly(p *System) {
	if p.IsEmpty() {
		return
	}
	for _, q := range s.Polys {
		if p.ContainedIn(q) {
			return
		}
	}
	kept := s.Polys[:0]
	for _, q := range s.Polys {
		if !q.ContainedIn(p) {
			kept = append(kept, q)
		}
	}
	s.Polys = append(kept, p)
}

// Intersect returns s ∩ o (pairwise polyhedron intersection).
func (s *Section) Intersect(o *Section) *Section {
	out := &Section{NDim: s.NDim, Exact: s.Exact && o.Exact}
	for _, p := range s.Polys {
		for _, q := range o.Polys {
			r := p.Intersect(q)
			if !r.IsEmpty() {
				out.addPoly(r)
			}
		}
	}
	return out
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
	cur := append(make([]*System, 0, len(s.Polys)), s.Polys...)
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
	out := &Section{NDim: s.NDim, Exact: false}
	for _, p := range cur {
		out.addPoly(p)
	}
	if len(out.Polys) == 0 {
		out.Exact = true
	}
	return out
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
	out := &Section{NDim: s.NDim, Exact: s.Exact}
	for _, p := range s.Polys {
		out.addPoly(p.EliminateVars(vars...))
	}
	return out
}

// Substitute applies a variable substitution to every polyhedron (parameter
// mapping across call sites).
func (s *Section) Substitute(v string, repl Expr) *Section {
	out := &Section{NDim: s.NDim, Exact: s.Exact}
	for _, p := range s.Polys {
		out.Polys = append(out.Polys, p.Substitute(v, repl))
	}
	return out
}

// Rename renames a symbolic variable in every polyhedron.
func (s *Section) Rename(old, new string) *Section {
	out := &Section{NDim: s.NDim, Exact: s.Exact}
	for _, p := range s.Polys {
		out.Polys = append(out.Polys, p.Rename(old, new))
	}
	return out
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
