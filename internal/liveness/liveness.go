// Package liveness implements the interprocedural array liveness analysis of
// Chapter 5: the top-down phase that propagates, from the end of the program
// back into every region, the summary of accesses still to come — so that
// for any region and array we can ask whether the values written are ever
// used again (live) or dead at the region's exit.
//
// Three algorithm variants are provided, matching §5.2.2–5.2.3:
//
//   - Full: context- and flow-sensitive with array sections (the proposed
//     algorithm, Figs 5-2/5-3);
//   - OneBit: the top-down phase keeps a single exposed-use bit per variable
//     (no kill, §5.2.3.1);
//   - FlowInsensitive: a variable is live at the end of a region if it is
//     live at the end of its parent or exposed in any sibling (§5.2.3.2).
//
// The bottom-up phase is the array data-flow analysis from package summary.
package liveness

import (
	"fmt"

	"suifx/internal/ir"
	"suifx/internal/lin"
	"suifx/internal/region"
	"suifx/internal/summary"
)

// Variant selects the algorithm precision (§5.2.3).
type Variant int

const (
	// Full is the proposed context-sensitive, flow-sensitive algorithm.
	Full Variant = iota
	// OneBit keeps one exposed bit per variable in the top-down phase.
	OneBit
	// FlowInsensitive ignores control flow between sibling regions.
	FlowInsensitive
)

func (v Variant) String() string {
	switch v {
	case Full:
		return "full"
	case OneBit:
		return "1-bit"
	default:
		return "flow-insensitive"
	}
}

// Info holds liveness results for one program.
type Info struct {
	Sum     *summary.Analysis
	Variant Variant
	// ExitSum maps each region to the summary of all accesses from its end
	// to the end of the program (Full variant).
	ExitSum map[*region.Region]*summary.Tuple
	// exitBits is the cheap variants' per-region exposed-after set.
	exitBits map[*region.Region]map[*ir.Symbol]bool

	encl  map[ir.Stmt]*region.Region // call/loop stmt -> region holding its After record
	sites map[string][]ir.CallSite   // callee name -> call sites, one program walk
}

// Analyze runs the top-down liveness phase with the chosen variant.
func Analyze(sum *summary.Analysis, v Variant) *Info {
	in := &Info{
		Sum:      sum,
		Variant:  v,
		ExitSum:  map[*region.Region]*summary.Tuple{},
		exitBits: map[*region.Region]map[*ir.Symbol]bool{},
		encl:     map[ir.Stmt]*region.Region{},
	}
	for r, m := range sum.After {
		for s := range m {
			in.encl[s] = r
		}
	}
	// Index all call sites up front: the per-proc propagation below queries
	// them once per procedure, and a fresh whole-program walk per query is
	// quadratic at corpus scale.
	in.sites = map[string][]ir.CallSite{}
	for _, pr := range sum.Prog.Procs {
		pr := pr
		ir.WalkStmts(pr.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.Call); ok {
				in.sites[c.Name] = append(in.sites[c.Name], ir.CallSite{Caller: pr, Call: c})
			}
			return true
		})
	}
	switch v {
	case Full:
		in.runFull()
	case OneBit:
		in.runOneBit()
	default:
		in.runFlowInsensitive()
	}
	return in
}

// ---- full variant ----

func (in *Info) runFull() {
	order, _ := in.Sum.Prog.TopDownOrder()
	for _, p := range order {
		top := in.Sum.Reg.ProcTop[p.Name]
		if p.IsMain {
			in.ExitSum[top] = summary.NewTuple()
		} else {
			in.ExitSum[top] = in.procExit(p)
		}
		in.downFull(top)
	}
}

// procExit computes S_{r0,P}: the meet over P's call sites of the summary
// from after the call to the end of the program, mapped to callee space.
func (in *Info) procExit(p *ir.Proc) *summary.Tuple {
	sites := in.sites[p.Name]
	var acc *summary.Tuple
	for _, cs := range sites {
		r := in.encl[ir.Stmt(cs.Call)]
		if r == nil || in.ExitSum[r] == nil {
			continue
		}
		after := summary.Compose(in.Sum.After[r][cs.Call], in.ExitSum[r])
		mapped := in.mapToCallee(cs, p, after)
		if acc == nil {
			acc = mapped
		} else {
			acc = summary.Meet(acc, mapped)
		}
	}
	if acc == nil {
		return summary.NewTuple() // never called: nothing follows
	}
	return acc
}

// downFull propagates exit summaries into the loops of one region.
func (in *Info) downFull(r *region.Region) {
	for _, c := range r.Children {
		if c.Kind != region.LoopRegion {
			continue
		}
		after := in.Sum.After[r][ir.Stmt(c.Loop)]
		if after == nil {
			after = summary.NewTuple()
		}
		in.ExitSum[c] = summary.Compose(after, in.ExitSum[r])
		// Loop body: one iteration may be followed by further iterations of
		// the same loop, then by everything after the loop (Fig 5-3):
		// R,E,W union with the loop's own summary; M from the exit path only.
		body := c.Body()
		in.ExitSum[body] = bodyExit(in.ExitSum[c], in.Sum.RegionSum[c])
		in.downFull(body)
	}
}

func bodyExit(afterLoop, loopSum *summary.Tuple) *summary.Tuple {
	out := afterLoop.Clone()
	for sym, la := range loopSum.Arrays {
		oa := out.Get(sym)
		oa.R = oa.R.Union(la.R)
		oa.E = oa.E.Union(la.E)
		oa.W = oa.W.Union(la.W).Union(la.M)
		// M stays: only the exit path's must-writes are guaranteed.
	}
	return out
}

// mapToCallee maps a caller-space "rest of execution" summary into the
// callee's name space (the paper's MapToCallee): formal parameters pick up
// the actual arguments' accesses (reshaped), canonical common keys pass
// through, caller-local symbols are dropped, and caller-specific symbolic
// names are projected away (widening — conservative for liveness).
func (in *Info) mapToCallee(cs ir.CallSite, callee *ir.Proc, t *summary.Tuple) *summary.Tuple {
	out := summary.NewTuple()
	// Actual base symbol -> formal.
	actualToFormal := map[*ir.Symbol]*ir.Symbol{}
	for i, arg := range cs.Call.Args {
		if i >= len(callee.Params) {
			break
		}
		switch x := arg.(type) {
		case *ir.VarRef:
			actualToFormal[in.Sum.Canon(x.Sym)] = callee.Params[i]
		case *ir.ArrayRef:
			actualToFormal[in.Sum.Canon(x.Sym)] = callee.Params[i]
		}
	}
	// Sorted iteration: distinct caller symbols can merge into one formal,
	// so the merge order must not depend on map iteration.
	for _, sym := range t.SortedSyms() {
		acc := t.Arrays[sym]
		if f, ok := actualToFormal[sym]; ok {
			merge(out.Get(f), transformToFormal(acc, f, sym))
			continue
		}
		if sym.Common != "" {
			merge(out.Get(sym), acc)
		}
		// Caller locals invisible to the callee are dropped.
	}
	return widenCallerNames(out)
}

// transformToFormal rewrites dimension variables of the actual's sections
// into the formal's index space when the shapes match; otherwise it widens
// to the whole formal array.
func transformToFormal(acc *summary.Access, formal, actual *ir.Symbol) *summary.Access {
	sameShape := len(formal.Dims) == len(actual.Dims)
	if sameShape {
		for i := range formal.Dims {
			if formal.Dims[i] != actual.Dims[i] {
				sameShape = false
				break
			}
		}
	}
	out := acc.Clone()
	out.Sym = formal
	if sameShape {
		return out
	}
	nd := len(formal.Dims)
	widen := func(s *lin.Section) *lin.Section {
		if s.IsEmpty() {
			return lin.EmptySection(nd)
		}
		return lin.WholeSection(nd)
	}
	out.R = widen(acc.R)
	out.E = widen(acc.E)
	out.W = widen(acc.W.Union(acc.M))
	out.M = lin.EmptySection(nd)
	out.Plain = widen(acc.Plain)
	out.PlainW = widen(acc.PlainW)
	out.Red = map[string]*lin.Section{}
	for op, s := range acc.Red {
		out.Red[op] = widen(s)
	}
	return out
}

func merge(dst, src *summary.Access) {
	dst.R = dst.R.Union(src.R)
	dst.E = dst.E.Union(src.E)
	dst.W = dst.W.Union(src.W)
	dst.M = dst.M.Union(src.M)
	dst.Plain = dst.Plain.Union(src.Plain)
	dst.PlainW = dst.PlainW.Union(src.PlainW)
	for op, s := range src.Red {
		if cur := dst.Red[op]; cur != nil {
			dst.Red[op] = cur.Union(s)
		} else {
			dst.Red[op] = s.Clone()
		}
	}
}

// widenCallerNames projects every caller symbolic name out of the mapped
// sections (callee space keeps only dimension variables). Must-writes
// referencing caller names are demoted.
func widenCallerNames(t *summary.Tuple) *summary.Tuple {
	return t.ProjectSyms(func(v string) bool { return !lin.IsDimVar(v) })
}

// ---- queries ----

// LiveAtExit returns the section of sym written in region r that is still
// read after r (the paper's L_r = E1 ∩ (W2 ∪ M2)); nil-safe only for the
// Full variant.
func (in *Info) LiveAtExit(r *region.Region, sym *ir.Symbol) *lin.Section {
	rs := in.Sum.RegionSum[r]
	if rs == nil {
		return lin.EmptySection(len(sym.Dims))
	}
	acc := rs.Lookup(sym)
	if acc == nil {
		return lin.EmptySection(len(sym.Dims))
	}
	writes := acc.Writes()
	if writes.IsEmpty() {
		return lin.EmptySection(len(sym.Dims))
	}
	exit := in.ExitSum[r]
	if exit == nil {
		return lin.EmptySection(len(sym.Dims))
	}
	ea := exit.Lookup(sym)
	if ea == nil {
		return lin.EmptySection(len(sym.Dims))
	}
	return ea.E.Intersect(writes)
}

// DeadAtExit reports whether every element of sym written by region r is
// dead (never read again) after r, under the chosen variant. Aliased
// common-block keys with different layouts are treated conservatively.
func (in *Info) DeadAtExit(r *region.Region, sym *ir.Symbol) bool {
	switch in.Variant {
	case Full:
		exit := in.ExitSum[r]
		if exit == nil {
			return false
		}
		if !in.LiveAtExit(r, sym).IsEmpty() {
			return false
		}
		for other, acc := range exit.Arrays {
			if other != sym && summary.Overlaps(other, sym) && !acc.E.IsEmpty() {
				return false
			}
		}
		return true
	default:
		bits := in.exitBits[r]
		if bits == nil {
			return false
		}
		if bits[sym] {
			return false
		}
		for other := range bits {
			if other != sym && summary.Overlaps(other, sym) && bits[other] {
				return false
			}
		}
		return true
	}
}

// Oracle adapts the analysis to the parallelizer's liveness hook.
func (in *Info) Oracle() func(r *region.Region, sym *ir.Symbol) bool {
	return func(r *region.Region, sym *ir.Symbol) bool { return in.DeadAtExit(r, sym) }
}

// ScalarOracle is Oracle restricted to scalars — the liveness even the
// pre-Chapter-5 system performs (Fig 5-6's base configuration):
// conditionally-written scalars that are dead at loop exit privatize, arrays
// are never reported dead.
func (in *Info) ScalarOracle() func(r *region.Region, sym *ir.Symbol) bool {
	return func(r *region.Region, sym *ir.Symbol) bool { return !sym.IsArray() && in.DeadAtExit(r, sym) }
}

// ---- cheap variants ----

// exposedBits extracts the per-symbol exposed-use bit of a tuple under the
// 1-bit lattice (§5.2.3.1): the transfer function has no kill operator, so
// a region's exposed set degenerates to "read anywhere in the region" —
// exactly the R component of the precise bottom-up summary.
func exposedBits(t *summary.Tuple) map[*ir.Symbol]bool {
	out := map[*ir.Symbol]bool{}
	for sym, acc := range t.Arrays {
		if !acc.R.IsEmpty() {
			out[sym] = true
		}
	}
	return out
}

// runOneBit is §5.2.3.1: the top-down phase uses one exposed bit per
// variable and its transfer function has no kill operator.
func (in *Info) runOneBit() {
	order, _ := in.Sum.Prog.TopDownOrder()
	for _, p := range order {
		top := in.Sum.Reg.ProcTop[p.Name]
		bits := map[*ir.Symbol]bool{}
		if !p.IsMain {
			for _, cs := range in.sites[p.Name] {
				r := in.encl[ir.Stmt(cs.Call)]
				if r == nil {
					continue
				}
				// One-bit: no kill — union the After bits and the exit bits.
				if after := in.Sum.After[r][cs.Call]; after != nil {
					for s := range exposedBits(after) {
						bits[in.calleeBitKey(cs, p, s)] = true
					}
				}
				for s, b := range in.exitBits[r] {
					if b {
						bits[in.calleeBitKey(cs, p, s)] = true
					}
				}
			}
		}
		in.exitBits[top] = bits
		in.downBits(top, false)
	}
}

// calleeBitKey maps a caller-space symbol to the callee's view for the bit
// lattice: formals via the call's actual bindings, commons via canon keys.
func (in *Info) calleeBitKey(cs ir.CallSite, callee *ir.Proc, sym *ir.Symbol) *ir.Symbol {
	for i, arg := range cs.Call.Args {
		if i >= len(callee.Params) {
			break
		}
		var base *ir.Symbol
		switch x := arg.(type) {
		case *ir.VarRef:
			base = x.Sym
		case *ir.ArrayRef:
			base = x.Sym
		}
		if base != nil && in.Sum.Canon(base) == sym {
			return callee.Params[i]
		}
	}
	return sym // common canon key or caller-local (harmlessly unmatched)
}

// downBits propagates exposed-after bits into nested loops. With
// flowInsensitive, a region's bit set also unions the exposed bits of every
// sibling (§5.2.3.2); otherwise only the code after the loop contributes.
func (in *Info) downBits(r *region.Region, flowInsensitive bool) {
	for _, c := range r.Children {
		if c.Kind != region.LoopRegion {
			continue
		}
		bits := map[*ir.Symbol]bool{}
		if flowInsensitive {
			// Live after parent, or exposed anywhere in the parent region
			// (any sibling, including this loop itself).
			for s, b := range in.exitBits[r] {
				if b {
					bits[s] = true
				}
			}
			if ps := in.regionSummary(r); ps != nil {
				for s, b := range exposedBits(ps) {
					if b {
						bits[s] = true
					}
				}
			}
		} else {
			after := in.Sum.After[r][ir.Stmt(c.Loop)]
			if after != nil {
				for s := range exposedBits(after) {
					bits[s] = true
				}
			}
			for s, b := range in.exitBits[r] {
				if b {
					bits[s] = true
				}
			}
		}
		in.exitBits[c] = bits
		// Loop body: additionally the loop's own exposed uses (further
		// iterations may read).
		bodyBits := map[*ir.Symbol]bool{}
		for s, b := range bits {
			if b {
				bodyBits[s] = true
			}
		}
		for s := range exposedBits(in.Sum.RegionSum[c]) {
			bodyBits[s] = true
		}
		in.exitBits[c.Body()] = bodyBits
		in.downBits(c.Body(), flowInsensitive)
	}
}

// regionSummary returns the access summary of any region kind.
func (in *Info) regionSummary(r *region.Region) *summary.Tuple {
	if r.Kind == region.LoopBody {
		return in.Sum.BodySum[r]
	}
	return in.Sum.RegionSum[r]
}

// runFlowInsensitive is §5.2.3.2.
func (in *Info) runFlowInsensitive() {
	order, _ := in.Sum.Prog.TopDownOrder()
	for _, p := range order {
		top := in.Sum.Reg.ProcTop[p.Name]
		bits := map[*ir.Symbol]bool{}
		if !p.IsMain {
			for _, cs := range in.sites[p.Name] {
				r := in.encl[ir.Stmt(cs.Call)]
				if r == nil {
					continue
				}
				// Flow-insensitive: exposed anywhere in the calling region or
				// live after it.
				if rs := in.regionSummary(r); rs != nil {
					for s := range exposedBits(rs) {
						bits[in.calleeBitKey(cs, p, s)] = true
					}
				}
				for s, b := range in.exitBits[r] {
					if b {
						bits[in.calleeBitKey(cs, p, s)] = true
					}
				}
			}
		}
		in.exitBits[top] = bits
		in.downBits(top, true)
	}
}

// ---- statistics (Fig 5-7) ----

// DeadStats counts, across all loops, the modified variables and how many
// of them are dead at the loop exit.
func (in *Info) DeadStats() (loops, modified, dead int) {
	for _, r := range in.Sum.Reg.LoopRegions() {
		loops++
		rs := in.Sum.RegionSum[r]
		if rs == nil {
			continue
		}
		for _, sym := range rs.SortedSyms() {
			acc := rs.Arrays[sym]
			if !sym.IsArray() || acc.Writes().IsEmpty() {
				continue
			}
			modified++
			if in.DeadAtExit(r, sym) {
				dead++
			}
		}
	}
	return
}

// String describes the variant for reports.
func (in *Info) String() string {
	l, m, d := in.DeadStats()
	return fmt.Sprintf("liveness[%s]: %d loops, %d modified arrays, %d dead at exit", in.Variant, l, m, d)
}
