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
	"maps"
	"slices"

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

// Exposed is the value the Full top-down pass carries: per canonical symbol,
// the section still read before being overwritten (the E component of
// "everything from here to the end of the program"). An absent symbol has
// nothing exposed. Maps and sections are never updated once stored, so
// regions a step does not touch share them.
type Exposed map[*ir.Symbol]*lin.Section

// Info holds liveness results for one program.
type Info struct {
	Sum     *summary.Analysis
	Variant Variant
	// ExitSum maps each region to the reads exposed from its end to the end
	// of the program (Full variant). No query reads any other component of
	// that summary, and E's recurrences read only E and M of the bottom-up
	// summaries, so E is all the pass propagates.
	ExitSum map[*region.Region]Exposed
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
		ExitSum:  map[*region.Region]Exposed{},
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
			in.ExitSum[top] = Exposed{}
		} else {
			in.ExitSum[top] = in.procExit(p)
		}
		in.downFull(top)
	}
}

// procExit computes S_{r0,P}: the meet (union, for exposed reads) over P's
// call sites of the reads exposed after the call, mapped to callee space.
func (in *Info) procExit(p *ir.Proc) Exposed {
	acc := Exposed{} // never called: nothing follows
	for _, cs := range in.sites[p.Name] {
		r := in.encl[ir.Stmt(cs.Call)]
		exit, ok := in.ExitSum[r]
		if !ok {
			continue
		}
		for sym, e := range in.mapToCallee(cs, p, then(in.Sum.After[r][cs.Call], exit)) {
			acc.set(sym, union(acc[sym], e))
		}
	}
	return acc
}

// downFull propagates exit values into the loops of one region.
func (in *Info) downFull(r *region.Region) {
	for _, c := range r.Children {
		if c.Kind != region.LoopRegion {
			continue
		}
		in.ExitSum[c] = then(in.Sum.After[r][ir.Stmt(c.Loop)], in.ExitSum[r])
		// Loop body: one iteration may be followed by further iterations of
		// the same loop, then by everything after the loop (Fig 5-3), so the
		// loop's own exposed reads join the exit path's.
		body := c.Body()
		out := maps.Clone(in.ExitSum[c])
		for sym, la := range in.Sum.RegionSum[c].Arrays {
			out.set(sym, union(out[sym], la.E))
		}
		in.ExitSum[body] = out
		in.downFull(body)
	}
}

// then returns the reads exposed by "after, then a rest of execution that
// exposes exit" — the E row of the paper's transfer function T,
// E = Ea ∪ (Eb − Ma). Only the symbols after touches are recomputed; every
// other symbol keeps exit's section.
func then(after *summary.Tuple, exit Exposed) Exposed {
	if after == nil || len(after.Arrays) == 0 {
		return exit
	}
	out := maps.Clone(exit)
	for sym, a := range after.Arrays {
		e := out[sym]
		if e != nil {
			e = e.Subtract(a.M)
		}
		out.set(sym, union(a.E, e))
	}
	return out
}

// set stores e under sym, keeping the invariant that only sections with
// polyhedra have an entry.
func (x Exposed) set(sym *ir.Symbol, e *lin.Section) {
	if e != nil && len(e.Polys) > 0 {
		x[sym] = e
	} else {
		delete(x, sym)
	}
}

// union is a ∪ b where nil is the section of a symbol without an entry.
func union(a, b *lin.Section) *lin.Section {
	switch {
	case b == nil:
		return a
	case a == nil:
		return b
	}
	return a.Union(b)
}

// argBase returns the symbol an actual argument passes by reference, or nil
// for an expression.
func argBase(arg ir.Expr) *ir.Symbol {
	switch x := arg.(type) {
	case *ir.VarRef:
		return x.Sym
	case *ir.ArrayRef:
		return x.Sym
	}
	return nil
}

// mapToCallee maps caller-space exposed reads into the callee's name space
// (the paper's MapToCallee): every formal picks up its actual's section
// (reshaped; one actual may bind several formals, CALL F(A,A)), canonical
// common keys pass through, caller-local symbols are dropped, and
// caller-specific symbolic names are projected away (widening — conservative
// for liveness).
func (in *Info) mapToCallee(cs ir.CallSite, callee *ir.Proc, t Exposed) Exposed {
	out := Exposed{}
	bound := map[*ir.Symbol]bool{}
	for i, arg := range cs.Call.Args {
		if i >= len(callee.Params) {
			break
		}
		base := argBase(arg)
		if base == nil {
			continue
		}
		actual := in.Sum.Canon(base)
		bound[actual] = true
		if e := t[actual]; e != nil {
			out.set(callee.Params[i], toFormal(e, callee.Params[i], actual))
		}
	}
	for sym, e := range t {
		if sym.Common != "" && !bound[sym] {
			out.set(sym, widenCallerNames(e))
		}
		// Caller locals invisible to the callee are dropped.
	}
	return out
}

// toFormal rewrites the actual's exposed section into the formal's index
// space: when the shapes match the dimension variables already are the
// formal's, otherwise anything exposed widens to the whole formal array.
func toFormal(e *lin.Section, formal, actual *ir.Symbol) *lin.Section {
	switch {
	case slices.Equal(formal.Dims, actual.Dims):
		return widenCallerNames(e)
	case e.IsEmpty():
		return nil
	}
	return lin.WholeSection(len(formal.Dims))
}

// widenCallerNames projects every caller symbolic name out of a mapped
// section (callee space keeps only dimension variables).
func widenCallerNames(e *lin.Section) *lin.Section {
	if vs := e.SymVars(); len(vs) > 0 {
		return e.Project(vs...)
	}
	return e
}

// ---- queries ----

// LiveAtExit returns the section of sym written in region r that is still
// read after r (the paper's L_r = E1 ∩ (W2 ∪ M2)); nil-safe only for the
// Full variant.
func (in *Info) LiveAtExit(r *region.Region, sym *ir.Symbol) *lin.Section {
	exposed := in.ExitSum[r][sym]
	rs := in.Sum.RegionSum[r]
	if exposed == nil || rs == nil || rs.Lookup(sym) == nil {
		return lin.EmptySection(len(sym.Dims))
	}
	return exposed.Intersect(rs.Lookup(sym).Writes())
}

// DeadAtExit reports whether every element of sym written by region r is
// dead (never read again) after r, under the chosen variant. Aliased
// common-block keys with different layouts are treated conservatively.
func (in *Info) DeadAtExit(r *region.Region, sym *ir.Symbol) bool {
	switch in.Variant {
	case Full:
		exit, ok := in.ExitSum[r]
		if !ok {
			return false
		}
		if !in.LiveAtExit(r, sym).IsEmpty() {
			return false
		}
		for other, e := range exit {
			if other != sym && summary.Overlaps(other, sym) && !e.IsEmpty() {
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
						in.markCallee(bits, cs, p, s)
					}
				}
				for s, b := range in.exitBits[r] {
					if b {
						in.markCallee(bits, cs, p, s)
					}
				}
			}
		}
		in.exitBits[top] = bits
		in.downBits(top, false)
	}
}

// markCallee sets the bit of caller-space symbol sym in the callee's name
// space: every formal the call binds to it (CALL F(A,A) binds two), else sym
// itself — a common canon key, or a caller local (harmlessly unmatched).
func (in *Info) markCallee(bits map[*ir.Symbol]bool, cs ir.CallSite, callee *ir.Proc, sym *ir.Symbol) {
	bound := false
	for i, arg := range cs.Call.Args {
		if i >= len(callee.Params) {
			break
		}
		if base := argBase(arg); base != nil && in.Sum.Canon(base) == sym {
			bits[callee.Params[i]] = true
			bound = true
		}
	}
	if !bound {
		bits[sym] = true
	}
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
						in.markCallee(bits, cs, p, s)
					}
				}
				for s, b := range in.exitBits[r] {
					if b {
						in.markCallee(bits, cs, p, s)
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
