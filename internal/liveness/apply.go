package liveness

import (
	"sort"

	"suifx/internal/ir"
	"suifx/internal/lin"
	"suifx/internal/region"
	"suifx/internal/summary"
)

// Split records one common-block live-range separation opportunity (§5.5,
// Fig 5-9): two overlapping layouts of the same block whose live ranges are
// disjoint, so the block can be split and the two variables laid out
// independently.
type Split struct {
	Block string
	A, B  *ir.Symbol
}

// CommonBlockSplits finds all splittable pairs of aliased common-block
// members. Per §5.5, the live ranges of two variables are disjoint if no
// code region writes into an array section that overlaps with any live
// section of the other variable at the end of that region. This test needs
// the kill in the full top-down phase: the weaker variants cannot tell that
// an intervening write covers the later reads, and report no splits.
func (in *Info) CommonBlockSplits() []Split {
	// Collect overlapping pairs of distinct canonical keys per block.
	byBlock := map[string][]*ir.Symbol{}
	seen := map[*ir.Symbol]bool{}
	collect := func(t *summary.Tuple) {
		if t == nil {
			return
		}
		for sym := range t.Arrays {
			if sym.Common != "" && sym.IsArray() && !seen[sym] {
				seen[sym] = true
				byBlock[sym.Common] = append(byBlock[sym.Common], sym)
			}
		}
	}
	for _, p := range in.Sum.Prog.Procs {
		collect(in.Sum.RegionSum[in.Sum.Reg.ProcTop[p.Name]])
	}
	var out []Split
	for blk, syms := range byBlock {
		sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
		for i, x := range syms {
			for _, y := range syms[i+1:] {
				if !summary.Overlaps(x, y) {
					continue
				}
				if in.disjointLiveRanges(x, y) {
					out = append(out, Split{Block: blk, A: x, B: y})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Block != out[j].Block {
			return out[i].Block < out[j].Block
		}
		return out[i].A.Name < out[j].A.Name
	})
	return out
}

// disjointLiveRanges checks every region: a region writing x must not have y
// live at its end, and vice versa.
func (in *Info) disjointLiveRanges(x, y *ir.Symbol) bool {
	if in.Variant != Full {
		// The cheap variants have no kill, so everything looks live; they
		// find no splits (the paper's point in §5.5).
		return false
	}
	regions := in.allRegions()
	for _, r := range regions {
		rs := in.Sum.RegionSum[r]
		exit, ok := in.ExitSum[r]
		if rs == nil || !ok {
			continue
		}
		if in.writesIn(rs, x) && exposedAfter(exit, y) {
			return false
		}
		if in.writesIn(rs, y) && exposedAfter(exit, x) {
			return false
		}
	}
	return true
}

func (in *Info) allRegions() []*region.Region {
	var out []*region.Region
	for _, p := range in.Sum.Prog.Procs {
		out = append(out, in.Sum.Reg.ProcTop[p.Name])
	}
	out = append(out, in.Sum.Reg.LoopRegions()...)
	return out
}

func (in *Info) writesIn(t *summary.Tuple, sym *ir.Symbol) bool {
	acc := t.Lookup(sym)
	return acc != nil && !acc.Writes().IsEmpty()
}

func exposedAfter(exit Exposed, sym *ir.Symbol) bool {
	e := exit[sym]
	return e != nil && !e.IsEmpty()
}

// Contraction records one array-contraction opportunity (§5.6): inside the
// loop, the array has no upwards-exposed reads, its values are dead at loop
// exit, and each iteration's footprint is a fraction of the whole array —
// so the array can be contracted to that footprint (lower dimensionality or
// a scalar).
type Contraction struct {
	Loop *region.Region
	Sym  *ir.Symbol
	// FullElems is the declared array size; FootprintElems the per-iteration
	// working set it can be contracted to (0 when not statically constant).
	FullElems      int64
	FootprintElems int64
}

// Contractions finds the arrays contractable with respect to each loop.
func (in *Info) Contractions() []Contraction {
	var out []Contraction
	for _, r := range in.Sum.Reg.LoopRegions() {
		rs := in.Sum.RegionSum[r]
		if rs == nil {
			continue
		}
		lc := in.Sum.Ctx[r]
		for _, sym := range rs.SortedSyms() {
			if !sym.IsArray() {
				continue
			}
			acc := rs.Arrays[sym]
			if acc.Writes().IsEmpty() {
				continue
			}
			// §5.6 conditions: no upwards-exposed reads in the loop, dead at
			// loop exit.
			if !acc.E.IsEmpty() || !in.DeadAtExit(r, sym) {
				continue
			}
			body := in.Sum.BodySum[r.Body()]
			bacc := body.Lookup(sym)
			if bacc == nil {
				continue
			}
			fp := footprintElems(bacc, lc.IndexVar, sym)
			if fp > 0 && fp < sym.NElems() {
				out = append(out, Contraction{
					Loop: r, Sym: sym,
					FullElems: sym.NElems(), FootprintElems: fp,
				})
			}
		}
	}
	return out
}

// footprintElems bounds the number of distinct elements one iteration
// touches: dimensions whose variables are pinned to the loop index (an
// equality coupling) contribute 1; others contribute their full extent.
func footprintElems(acc *summary.Access, idx string, sym *ir.Symbol) int64 {
	writes := acc.Writes()
	if len(writes.Polys) == 0 {
		return 0
	}
	total := int64(1)
	for d, dim := range sym.Dims {
		pinned := true
		for _, p := range writes.Polys {
			if !dimPinned(p, d, idx) {
				pinned = false
				break
			}
		}
		if pinned {
			continue // contributes a single element per iteration
		}
		total *= dim.Size()
	}
	return total
}

// dimPinned reports whether the polyhedron forces dimension d to a single
// value per iteration: a pair of opposite constraints (an equality) on the
// dimension variable whose other terms are iteration-fixed (the loop index,
// invariants or per-iteration unknowns — anything but another dimension).
func dimPinned(p *lin.System, d int, idx string) bool {
	dv := lin.DimVar(d)
	have := map[string]bool{}
	for _, c := range p.Cons {
		have[c.E.String()] = true
	}
	for _, c := range p.Cons {
		co := c.E.CoefOf(dv)
		if co != 1 && co != -1 {
			continue
		}
		otherDims := false
		for _, v := range c.E.Vars() {
			if v != dv && lin.IsDimVar(v) {
				otherDims = true
				break
			}
		}
		if otherDims {
			continue
		}
		if have[c.E.Scale(-1).String()] {
			return true
		}
	}
	return false
}
