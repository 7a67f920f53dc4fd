package exec

import (
	"io"
	"sort"

	"suifx/internal/ir"
)

// FusedPairCensusForTest is a test-only probe: it runs prog on the VM
// (optionally instrumented) with per-pc counting and returns the dynamic
// pair frequencies remaining in the fused stream plus single-op counts —
// the data the fusion set is tuned against.
func FusedPairCensusForTest(prog *ir.Program, instrumented bool) (pairs, singles map[string]int64, err error) {
	in := New(prog)
	in.Out = io.Discard
	if instrumented {
		NewProfiler(in)
		NewDynDep(in)
	}
	cd := loweredOf(prog).codeFor(prog, instrumented)
	in.pcCount = make([]int64, len(cd.ins)+1) // one spare cell: see vm.pcCount
	if err := in.Run(); err != nil {
		return nil, nil, err
	}
	pairs, singles = map[string]int64{}, map[string]int64{}
	for pc := range cd.ins {
		n := in.pcCount[pc]
		if n == 0 {
			continue
		}
		singles[opName(cd.ins[pc].op)] += n
		if pc+1 == len(cd.ins) || isControlTransfer(cd.ins[pc].op) {
			continue
		}
		pairs[opName(cd.ins[pc].op)+"+"+opName(cd.ins[pc+1].op)] += n
	}
	return pairs, singles, nil
}

// CellRange is a half-open run of arena cells, [Lo, Hi).
type CellRange struct{ Lo, Hi int64 }

// PlanCellsForTest lists the arena cells a planned interpreter hands its
// plan workers: per planned loop, the cells each bank binds (index w is
// plan worker w), and each worker's scratch block.
func PlanCellsForTest(in *Interp) (banks [][][]CellRange, temps []CellRange) {
	for _, lrt := range in.planRT.loops {
		loop := make([][]CellRange, len(lrt.banks))
		for w, b := range lrt.banks {
			for sym, addr := range b.syms {
				loop[w] = append(loop[w], CellRange{addr, addr + sym.NElems()})
			}
		}
		banks = append(banks, loop)
	}
	for _, tb := range in.workerTemp {
		temps = append(temps, CellRange{tb, tb + tempCells})
	}
	return banks, temps
}

// CellCount is one arena cell's count of dynamic carried flow dependences.
type CellCount struct{ Cell, Count int64 }

// CarriedCellsForTest lists the cells at which loop l carried dynamic flow
// dependences, with their counts, sorted by cell: what CarriedInRange sums.
func (d *DynDep) CarriedCellsForTest(l *ir.DoLoop) []CellCount {
	var out []CellCount
	for cell, n := range d.carriedAt[l] {
		if n != 0 {
			out = append(out, CellCount{cell, n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}
