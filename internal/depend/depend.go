// Package depend implements the per-loop dependence analysis and variable
// classification of §2.4: for every variable touched by a loop it decides
// whether the accesses are independent across iterations (parallel),
// privatizable, a reduction, or a genuine loop-carried dependence — driving
// the parallelizer's outermost-loop decisions.
package depend

import (
	"sort"

	"suifx/internal/ir"
	"suifx/internal/lin"
	"suifx/internal/region"
	"suifx/internal/summary"
	"suifx/internal/symbolic"
)

// Class is a variable's classification with respect to one loop.
type Class int

const (
	// ClassIndex is the DO index (an induction variable, always fine).
	ClassIndex Class = iota
	// ClassReadOnly variables are never written in the loop.
	ClassReadOnly
	// ClassParallel variables have no loop-carried access conflicts.
	ClassParallel
	// ClassPrivate variables can be privatized (no upwards-exposed reads).
	ClassPrivate
	// ClassReduction variables are updated only commutatively.
	ClassReduction
	// ClassDep variables carry an unresolved loop-carried dependence.
	ClassDep
)

func (c Class) String() string {
	switch c {
	case ClassIndex:
		return "index"
	case ClassReadOnly:
		return "read-only"
	case ClassParallel:
		return "parallel"
	case ClassPrivate:
		return "private"
	case ClassReduction:
		return "reduction"
	default:
		return "dependence"
	}
}

// VarResult is the classification of one variable for one loop.
type VarResult struct {
	Sym   *ir.Symbol
	Class Class
	// RedOp is the reduction operator for ClassReduction.
	RedOp string
	// RedRegion is the loop-level reduction region (for runtime
	// initialization/finalization sizing, §6.3.3).
	RedRegion *lin.Section
	// NeedsFinalization marks privatized variables that are (or may be)
	// live at loop exit and whose final value must be written back.
	NeedsFinalization bool
	// ByAssertion marks classifications forced by a user assertion.
	ByAssertion bool
	// Reason explains a ClassDep verdict.
	Reason string
}

// Options control classification.
type Options struct {
	// UseReductions enables reduction recognition (the Chapter 6 ablation
	// switch: Fig 6-4..6-7 compare without/with).
	UseReductions bool
	// DeadAtExit, when non-nil, is the array liveness oracle (Chapter 5):
	// it reports that no element of sym written by loop r is read after r.
	DeadAtExit func(r *region.Region, sym *ir.Symbol) bool
	// AssertPrivate and AssertIndependent carry user assertions from the
	// Explorer (§2.8), keyed by the storage's representative
	// (ir.Symbol.Canon).
	AssertPrivate     map[*ir.Symbol]bool
	AssertIndependent map[*ir.Symbol]bool
}

// LoopResult is the dependence verdict for one loop.
type LoopResult struct {
	Region *region.Region
	// Parallelizable is true when every variable is resolved and the loop
	// has no I/O and no early exit.
	Parallelizable bool
	// NeedsReduction is true when parallelization requires the reduction
	// transformation for at least one variable.
	NeedsReduction bool
	HasIO          bool
	// ExitLine is the line of the first RETURN or STOP in the loop's body,
	// 0 when there is none: a parallel run would run every iteration and
	// go on after the loop.
	ExitLine int
	Vars     []VarResult
	// Blocking lists the unresolved variables (ClassDep).
	Blocking []VarResult
}

// AnalyzeLoop classifies every variable of the loop and decides
// parallelizability.
func AnalyzeLoop(a *summary.Analysis, r *region.Region, opts Options) *LoopResult {
	body := r.Body()
	bt := a.BodySum[body]
	lc := a.Ctx[r]
	res := &LoopResult{Region: r}
	ir.WalkStmts(r.Loop.Body, func(s ir.Stmt) bool {
		switch s.(type) {
		case *ir.IO:
			res.HasIO = true
		case *ir.Return, *ir.Stop:
			if res.ExitLine == 0 {
				res.ExitLine = s.Position().Line
			}
		}
		return true
	})

	syms := bt.SortedSyms()
	if len(syms) > 0 {
		res.Vars = make([]VarResult, 0, len(syms))
	}
	for _, sym := range syms {
		acc := bt.Arrays[sym]
		vr := classify(a, r, sym, acc, lc.IndexVar, lc.Variant, opts)
		res.Vars = append(res.Vars, vr)
		if vr.Class == ClassDep {
			res.Blocking = append(res.Blocking, vr)
		}
		if vr.Class == ClassReduction {
			res.NeedsReduction = true
		}
	}
	// Aliased common-block keys with different layouts: conservative.
	for i, x := range syms {
		for _, y := range syms[i+1:] {
			if x == y || !summary.Overlaps(x, y) {
				continue
			}
			ax, ay := bt.Arrays[x], bt.Arrays[y]
			if ax.Writes().IsEmpty() && ay.Writes().IsEmpty() {
				continue
			}
			vr := VarResult{Sym: x, Class: ClassDep,
				Reason: "aliased with " + r.Proc.Own(y).Name + " through common /" + x.Common + "/ with a different layout"}
			res.Vars = append(res.Vars, vr)
			res.Blocking = append(res.Blocking, vr)
		}
	}
	sort.SliceStable(res.Blocking, func(i, j int) bool {
		return r.Proc.Own(res.Blocking[i].Sym).Name < r.Proc.Own(res.Blocking[j].Sym).Name
	})
	res.Parallelizable = !res.HasIO && res.ExitLine == 0 && len(res.Blocking) == 0
	return res
}

func classify(a *summary.Analysis, r *region.Region, sym *ir.Symbol, acc *summary.Access, idx string, variant []string, opts Options) VarResult {
	vr := VarResult{Sym: sym}
	if sym == r.Loop.Index.Canon() {
		vr.Class = ClassIndex
		return vr
	}
	writes := acc.Writes()
	if writes.IsEmpty() {
		vr.Class = ClassReadOnly
		return vr
	}
	if opts.AssertIndependent[sym] {
		vr.Class = ClassParallel
		vr.ByAssertion = true
		return vr
	}
	// No loop-carried conflict between writes and any access?
	if !CrossIterConflict(writes, acc.R.Union(writes), idx) {
		vr.Class = ClassParallel
		return vr
	}
	// Privatizable? No upwards-exposed reads per iteration, and the final
	// values can be handled: either every iteration writes the identical
	// region (last iteration finalizes, §5.4's base rule), or liveness shows
	// the variable dead at exit (the Chapter 5 enhancement).
	if acc.E.IsEmpty() {
		if sectionIdxFree(acc.M, idx, variant) && acc.W.IsEmpty() {
			vr.Class = ClassPrivate
			vr.NeedsFinalization = true
			return vr
		}
		if opts.DeadAtExit != nil && opts.DeadAtExit(r, sym) {
			vr.Class = ClassPrivate
			return vr
		}
	}
	if opts.AssertPrivate[sym] {
		vr.Class = ClassPrivate
		vr.ByAssertion = true
		return vr
	}
	// Reduction? All conflicting accesses must be commutative updates of a
	// single operator (§6.2.2.1 criteria).
	if opts.UseReductions {
		if op, region, ok := reductionOK(acc, idx); ok {
			vr.Class = ClassReduction
			vr.RedOp = op
			vr.RedRegion = region
			return vr
		}
	}
	vr.Class = ClassDep
	vr.Reason = depReason(acc, idx)
	return vr
}

// CrossIterConflict reports whether section A in one iteration may touch
// section B in a different iteration (idx is the loop index variable). Both
// directions are tested.
func CrossIterConflict(a, b *lin.Section, idx string) bool {
	return conflictDir(a, b, idx) || conflictDir(b, a, idx)
}

// conflictDir tests ∃ i1 < i2 with a(i1) ∩ b(i2) ≠ ∅. Loop-variant unknowns
// ("%" names) take different values in different iterations, so they are
// renamed in the second copy along with the index (conservatively including
// unknowns minted in outer loops). A pair conflicts unless a(i1) ∩ b(i2)
// implies i1 >= i2, which IntersectImplies tests as the emptiness of the
// intersection with i2 >= i1+1 added.
func conflictDir(a, b *lin.Section, idx string) bool {
	if len(a.Polys) == 0 {
		return false
	}
	other := "$iter2$" + idx
	later := make([]*lin.System, len(b.Polys))
	for k, q := range b.Polys {
		q2 := q.Rename(idx, other)
		for _, v := range q2.Vars() {
			if symbolic.IsVariantVar(v) {
				q2 = q2.Rename(v, "$iter2$"+v)
			}
		}
		later[k] = q2
	}
	notLater := lin.Constraint{E: lin.Var(idx).Sub(lin.Var(other))} // i1 >= i2
	for _, p := range a.Polys {
		for _, q2 := range later {
			if !p.IntersectImplies(q2, notLater) {
				return true
			}
		}
	}
	return false
}

// sectionIdxFree reports whether every iteration writes the identical
// region: the loop index must not be coupled — directly or transitively
// through shared constraints — to any dimension variable, and no polyhedron
// may reference a loop-variant unknown minted in this loop's body (its value
// differs between iterations). Pure bound constraints on the index alone do
// not make the region iteration-variant.
func sectionIdxFree(s *lin.Section, idx string, variant []string) bool {
	vset := map[string]bool{}
	for _, v := range variant {
		vset[v] = true
	}
	for _, p := range s.Polys {
		for _, v := range p.Vars() {
			if vset[v] {
				return false
			}
		}
		// Union-find over variables co-occurring in a constraint.
		parent := map[string]string{}
		var find func(v string) string
		find = func(v string) string {
			if parent[v] == "" || parent[v] == v {
				parent[v] = v
				return v
			}
			r := find(parent[v])
			parent[v] = r
			return r
		}
		union := func(a, b string) { parent[find(a)] = find(b) }
		for _, c := range p.Cons {
			vars := c.E.Vars()
			for i := 1; i < len(vars); i++ {
				union(vars[0], vars[i])
			}
		}
		if !hasVar(p, idx) {
			continue
		}
		idxRoot := find(idx)
		for _, v := range p.Vars() {
			if lin.IsDimVar(v) && find(v) == idxRoot {
				return false
			}
		}
	}
	return true
}

func hasVar(p *lin.System, v string) bool {
	for _, x := range p.Vars() {
		if x == v {
			return true
		}
	}
	return false
}

// reductionOK checks §6.2.2.1: every loop-carried conflict involves only
// commutative updates of one operator type.
func reductionOK(acc *summary.Access, idx string) (op string, region *lin.Section, ok bool) {
	var ops []string
	for o, s := range acc.Red {
		if !s.IsEmpty() {
			ops = append(ops, o)
		}
	}
	if len(ops) == 0 {
		return "", nil, false
	}
	sort.Strings(ops)
	// Regions of different operators must not conflict with each other.
	for i, o1 := range ops {
		for _, o2 := range ops[i+1:] {
			if CrossIterConflict(acc.Red[o1], acc.Red[o2], idx) {
				return "", nil, false
			}
		}
	}
	// Plain accesses must not conflict with anything (writes with all, reads
	// with reduction writes).
	all := acc.R.Union(acc.Writes())
	if CrossIterConflict(acc.PlainW, all, idx) {
		return "", nil, false
	}
	for _, o := range ops {
		if CrossIterConflict(acc.Red[o], acc.Plain, idx) {
			return "", nil, false
		}
	}
	// A single operator region covers the conflicts; when several disjoint
	// operator regions exist we report the dominant one (the runtime
	// transforms each region independently).
	region = lin.EmptySection(len(acc.Sym.Dims))
	for _, o := range ops {
		region = region.Union(acc.Red[o].Project(idx))
	}
	return ops[0], region, true
}

func depReason(acc *summary.Access, idx string) string {
	if !acc.E.IsEmpty() {
		return "value may flow between iterations (upwards-exposed read " + acc.E.String() + ")"
	}
	if !acc.W.IsEmpty() {
		return "conditionally or irregularly written; cannot prove private (may-write " + acc.W.String() + ")"
	}
	return "loop-variant write region; final values cannot be determined"
}
