// Package summary implements the interprocedural array data-flow analysis of
// §5.2 and §6.2: for every region (loop body, loop, procedure) it computes,
// per array, the four-tuple ⟨R, E, W, M⟩ of may-read, upwards-exposed-read,
// may-write and must-write sections, represented as unions of systems of
// linear inequalities. Commutative-update (reduction) regions are tracked
// alongside, per operator, exactly as §6.2.2.3 integrates reduction
// recognition into the data-flow framework.
//
// Scalars participate uniformly as 0-dimensional arrays.
package summary

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"suifx/internal/ir"
	"suifx/internal/lin"
)

// Reduction operator names.
const (
	RedAdd = "+"
	RedMul = "*"
	RedMin = "MIN"
	RedMax = "MAX"
)

// Access is the per-array summary for one region: the paper's
// ⟨R, E, W, M⟩ tuple plus reduction bookkeeping. W and M are disjoint:
// W holds may-writes not known to always execute; M holds must-writes.
// Like a lin.Section, a record is never written once the function that built
// it has returned, so tuples share the records a transfer function leaves
// alone.
type Access struct {
	Sym *ir.Symbol // canonical symbol (see Analysis.Canon)
	R   *lin.Section
	E   *lin.Section
	W   *lin.Section
	M   *lin.Section
	// Red maps a commutative operator to the section updated only through
	// that operator; Plain is everything touched by non-reduction accesses
	// and PlainW the subset of Plain that is written.
	Red    map[string]*lin.Section
	Plain  *lin.Section
	PlainW *lin.Section
}

// Writes returns W ∪ M, the full may-write section.
func (a *Access) Writes() *lin.Section { return a.W.Union(a.M) }

// Tuple is a whole-region summary: one Access per touched canonical symbol.
type Tuple struct {
	Arrays map[*ir.Symbol]*Access
}

// NewTuple returns an empty summary.
func NewTuple() *Tuple { return &Tuple{Arrays: map[*ir.Symbol]*Access{}} }

// view returns a copy of t's record for sym: every section empty when t has
// none.
func (t *Tuple) view(sym *ir.Symbol) Access {
	if a := t.Arrays[sym]; a != nil {
		return *a
	}
	e := lin.EmptySection(len(sym.Dims))
	return Access{Sym: sym, R: e, E: e, W: e, M: e, Plain: e, PlainW: e}
}

// Get returns (creating) the access record for sym, for the function that is
// still building t to fill in.
func (t *Tuple) Get(sym *ir.Symbol) *Access {
	a := t.Arrays[sym]
	if a == nil {
		fresh := t.view(sym)
		a = &fresh
		t.Arrays[sym] = a
	}
	return a
}

// Lookup returns the access record for sym or nil.
func (t *Tuple) Lookup(sym *ir.Symbol) *Access { return t.Arrays[sym] }

// SortedSyms returns the touched symbols in deterministic order.
func (t *Tuple) SortedSyms() []*ir.Symbol {
	out := make([]*ir.Symbol, 0, len(t.Arrays))
	for s := range t.Arrays {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Common < out[j].Common
	})
	return out
}

// Compose returns the summary of "a then b" (the paper's transfer function T):
// R = Ra ∪ Rb, E = Ea ∪ (Eb − Ma), W = Wa ∪ Wb, M = Ma ∪ Mb. Symbols b does
// not touch keep a's record.
func Compose(a, b *Tuple) *Tuple {
	out := &Tuple{Arrays: maps.Clone(a.Arrays)}
	for sym, bb := range b.Arrays {
		aa := a.view(sym)
		out.Arrays[sym] = &Access{
			Sym:    sym,
			R:      aa.R.Union(bb.R),
			E:      aa.E.Union(bb.E.Subtract(aa.M)),
			W:      aa.W.Union(bb.W),
			M:      aa.M.Union(bb.M),
			Red:    redUnion(aa.Red, bb.Red),
			Plain:  aa.Plain.Union(bb.Plain),
			PlainW: aa.PlainW.Union(bb.PlainW),
		}
	}
	return out
}

// Meet combines summaries of alternative paths (the ∧ operator):
// R, E, W union; M intersection.
func Meet(a, b *Tuple) *Tuple {
	out := &Tuple{Arrays: make(map[*ir.Symbol]*Access, len(a.Arrays))}
	for _, t := range []*Tuple{a, b} {
		for sym := range t.Arrays {
			if out.Arrays[sym] != nil {
				continue
			}
			aa, ba := a.view(sym), b.view(sym)
			both := aa.M.Intersect(ba.M)
			out.Arrays[sym] = &Access{
				Sym:    sym,
				R:      aa.R.Union(ba.R),
				E:      aa.E.Union(ba.E),
				W:      aa.W.Union(ba.W).Union(aa.M.Union(ba.M).Subtract(both)),
				M:      both,
				Red:    redUnion(aa.Red, ba.Red),
				Plain:  aa.Plain.Union(ba.Plain),
				PlainW: aa.PlainW.Union(ba.PlainW),
			}
		}
	}
	return out
}

// redUnion returns the per-operator union of two Red maps, a itself when b
// is empty. Neither map is written: records share them like sections.
func redUnion(a, b map[string]*lin.Section) map[string]*lin.Section {
	if len(b) == 0 {
		return a
	}
	out := make(map[string]*lin.Section, len(a)+len(b))
	maps.Copy(out, a)
	for op, s := range b {
		if prev := out[op]; prev != nil {
			s = prev.Union(s)
		}
		out[op] = s
	}
	return out
}

// CloseLoop computes the loop-level summary from a body summary by
// projecting away the loop index and every loop-variant unknown minted in
// the body (§5.2.2's closure operator). Must-write polyhedra survive only
// when the projection is exact: no variant unknowns and, if the index is
// referenced, exact loop bounds. When refineE returns true for an access
// (requires exact bounds), the §5.2.2.3 enhancement subtracts the
// must-writes of strictly earlier iterations from the upwards-exposed
// reads before the closure — which resolves recurrences like flo88's psmoo
// (Fig 5-4) to just the truly exposed boundary elements.
func CloseLoop(body *Tuple, idxVar string, exactBounds bool, variant []string, bounds *lin.System, refineE func(a *Access) bool) *Tuple {
	proj := append([]string{idxVar}, variant...)
	project := func(s *lin.Section) *lin.Section { return s.Project(proj...) }
	out := &Tuple{Arrays: make(map[*ir.Symbol]*Access, len(body.Arrays))}
	for sym, a := range body.Arrays {
		in := *a
		if refineE != nil && refineE(a) {
			in.E = a.E.Subtract(earlierMustWrites(a.M, idxVar, exactBounds, variant, bounds))
		}
		oa := in.mapSections(project)

		// Must-writes: keep polyhedra whose projection is exact; the others
		// are demoted to may-writes.
		oa.M = lin.EmptySection(len(sym.Dims))
		for _, p := range a.M.Polys {
			q := []*lin.System{p.EliminateVars(proj...)}
			if mustProjectable(p, idxVar, exactBounds, variant) {
				oa.M = oa.M.Union(&lin.Section{NDim: len(sym.Dims), Polys: q, Exact: a.M.Exact})
			} else {
				oa.W = oa.W.Union(&lin.Section{NDim: len(sym.Dims), Polys: q, Exact: false})
			}
		}
		out.Arrays[sym] = &oa
	}
	return out
}

// mapSections returns a copy of a with f applied to every section but M.
func (a *Access) mapSections(f func(*lin.Section) *lin.Section) Access {
	out := Access{Sym: a.Sym, R: f(a.R), E: f(a.E), W: f(a.W), M: a.M, Red: a.Red, Plain: f(a.Plain), PlainW: f(a.PlainW)}
	if len(a.Red) > 0 {
		out.Red = make(map[string]*lin.Section, len(a.Red))
		for op, s := range a.Red {
			out.Red[op] = f(s)
		}
	}
	return out
}

// earlierMustWrites builds, as a function of the current iteration idxVar,
// the section definitely written by all strictly earlier iterations: each
// must-write polyhedron (only those with exact, variant-free projections)
// has its index renamed to a fresh variable constrained to the loop bounds
// and < idxVar, which is then projected away. The bound constraints matter:
// without them an index-free must-write would wrongly appear to cover the
// first iteration's exposed reads.
func earlierMustWrites(m *lin.Section, idxVar string, exactBounds bool, variant []string, bounds *lin.System) *lin.Section {
	prev := "$prev$" + idxVar
	out := lin.EmptySection(m.NDim)
	for _, p := range m.Polys {
		if !mustProjectable(p, idxVar, exactBounds, variant) {
			continue
		}
		q := p.Rename(idxVar, prev)
		if bounds != nil {
			q = q.Intersect(bounds.Rename(idxVar, prev))
		}
		q.AddGE(lin.Var(idxVar).Sub(lin.Var(prev)).AddConst(-1)) // prev <= idx-1
		out = out.Union(&lin.Section{NDim: m.NDim, Polys: []*lin.System{q.Eliminate(prev)}, Exact: m.Exact})
	}
	return out
}

func mustProjectable(p *lin.System, idxVar string, exactBounds bool, variant []string) bool {
	for _, v := range p.Vars() {
		if v == idxVar {
			if !exactBounds {
				return false
			}
			continue
		}
		for _, bad := range variant {
			if v == bad {
				return false
			}
		}
		if strings.HasPrefix(v, "%") {
			// A variant unknown minted in an inner loop that leaked here.
			return false
		}
	}
	return true
}

// ProjectSyms projects the given symbolic variables out of every section
// (over-approximating); must-writes referencing them are demoted to
// may-writes. Used at procedure boundaries to eliminate callee-local names.
func (t *Tuple) ProjectSyms(drop func(v string) bool) *Tuple {
	project := func(s *lin.Section) *lin.Section { return projectIf(s, drop) }
	out := &Tuple{Arrays: make(map[*ir.Symbol]*Access, len(t.Arrays))}
	for sym, a := range t.Arrays {
		oa := a.mapSections(project)
		var must []*lin.System
		for _, p := range a.M.Polys {
			if q := projectPoly(p, drop); q == p {
				must = append(must, p)
			} else {
				oa.W = oa.W.Union(&lin.Section{NDim: len(sym.Dims), Polys: []*lin.System{q}, Exact: false})
			}
		}
		if len(must) != len(a.M.Polys) {
			oa.M = &lin.Section{NDim: len(sym.Dims), Polys: must, Exact: a.M.Exact}
		}
		// An unchanged record is shared (one with reductions got a new Red map).
		if len(a.Red) == 0 && oa.R == a.R && oa.E == a.E && oa.W == a.W && oa.M == a.M && oa.Plain == a.Plain && oa.PlainW == a.PlainW {
			out.Arrays[sym] = a
		} else {
			fresh := oa // only a changed record reaches the heap
			out.Arrays[sym] = &fresh
		}
	}
	return out
}

// projectIf projects the names drop selects out of every polyhedron of s: s
// itself when no polyhedron mentions one.
func projectIf(s *lin.Section, drop func(v string) bool) *lin.Section {
	polys := make([]*lin.System, len(s.Polys))
	for i, p := range s.Polys {
		polys[i] = projectPoly(p, drop)
	}
	if slices.Equal(polys, s.Polys) {
		return s
	}
	return &lin.Section{NDim: s.NDim, Polys: polys, Exact: s.Exact}
}

func projectPoly(p *lin.System, drop func(v string) bool) *lin.System {
	out := p
	for _, v := range p.Vars() {
		if drop(v) {
			out = out.Eliminate(v)
		}
	}
	return out
}

// String renders a tuple for debugging.
func (t *Tuple) String() string {
	var b strings.Builder
	for _, sym := range t.SortedSyms() {
		a := t.Arrays[sym]
		b.WriteString(sym.Name + ": R=" + a.R.String() + " E=" + a.E.String() +
			" W=" + a.W.String() + " M=" + a.M.String())
		for _, op := range []string{RedAdd, RedMul, RedMin, RedMax} {
			if s, ok := a.Red[op]; ok && !s.IsEmpty() {
				b.WriteString(" Red[" + op + "]=" + s.String())
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
