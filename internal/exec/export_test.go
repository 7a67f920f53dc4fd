package exec

import (
	"io"

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
	in.pcCount = make([]int64, len(cd.ins))
	if err := in.Run(); err != nil {
		return nil, nil, err
	}
	pairs, singles = map[string]int64{}, map[string]int64{}
	for pc := 0; pc+1 < len(cd.ins); pc++ {
		n := in.pcCount[pc]
		if n == 0 {
			continue
		}
		singles[opName(cd.ins[pc].op)] += n
		if isControlTransfer(cd.ins[pc].op) {
			continue
		}
		pairs[opName(cd.ins[pc].op)+"+"+opName(cd.ins[pc+1].op)] += n
	}
	return pairs, singles, nil
}
