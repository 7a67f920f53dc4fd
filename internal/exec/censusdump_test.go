package exec_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// TestDumpInstrumentedCensus is a development aid: -run it with -v to see
// the census the other way round — for every opcode of the compiled
// streams, its peak share of dispatched instructions over the benchmark's
// five exec-run programs, the six Nanz tasks and the corpus quick ladder,
// on the plain stream and (for instrumented twins) under profiler + full
// DDA. A fused superinstruction whose family stays under 0.5% on every
// input has not earned its dispatch case.
func TestDumpInstrumentedCensus(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("dump only under -v")
	}
	type input struct{ name, src string }
	var inputs []input
	for _, n := range []string{"mdg", "hydro", "applu", "arc3d", "flo88"} {
		inputs = append(inputs, input{n, workloads.ByName(n).Source})
	}
	for _, w := range workloads.Suite("nanz") {
		inputs = append(inputs, input{w.Name, w.Source})
	}
	for _, tier := range corpus.QuickLadder() {
		p := tier.Generate()
		inputs = append(inputs, input{"corpus-" + tier.Name, p.Source})
	}

	type peak struct {
		share float64
		at    string
	}
	peaks := map[string]peak{}
	for _, in := range inputs {
		for _, instrumented := range []bool{false, true} {
			_, singles, err := exec.FusedPairCensusForTest(minif.MustParse(in.name, in.src), instrumented)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			var total int64
			for _, n := range singles {
				total += n
			}
			for op, n := range singles {
				if s := float64(n) / float64(total); s > peaks[op].share {
					peaks[op] = peak{s, fmt.Sprintf("%s/instr=%v", in.name, instrumented)}
				}
			}
		}
	}
	ops := make([]string, 0, len(peaks))
	for op := range peaks {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return peaks[ops[i]].share > peaks[ops[j]].share })
	var sb strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&sb, "%-20s %7.3f%%  %s\n", op, 100*peaks[op].share, peaks[op].at)
	}
	t.Logf("peak share of dispatched instructions per opcode:\n%s", sb.String())
}
