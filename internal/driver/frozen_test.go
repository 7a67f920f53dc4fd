package driver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/depend"
	"suifx/internal/lin"
	"suifx/internal/liveness"
	"suifx/internal/parallel"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// exactTuple renders everything a tuple holds, not only what Tuple.String
// prints: all seven components with their NDim and Exact flag, polyhedra in
// stored order, every Red entry.
func exactTuple(t *summary.Tuple) string {
	section := func(s *lin.Section) string {
		parts := make([]string, len(s.Polys))
		for i, p := range s.Polys {
			parts[i] = p.String()
		}
		return fmt.Sprintf("%d/%t[%s]", s.NDim, s.Exact, strings.Join(parts, " | "))
	}
	var b strings.Builder
	for _, sym := range t.SortedSyms() {
		a := t.Arrays[sym]
		fmt.Fprintf(&b, "%s /%s/: R=%s E=%s W=%s M=%s Plain=%s PlainW=%s", sym.Name, sym.Common,
			section(a.R), section(a.E), section(a.W), section(a.M), section(a.Plain), section(a.PlainW))
		ops := make([]string, 0, len(a.Red))
		for op := range a.Red {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			fmt.Fprintf(&b, " Red[%s]=%s", op, section(a.Red[op]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSummariesAreFrozen guards the rule the bottom-up pass shares records
// on: a section, an access record and a tuple are never written once built.
// One cached analysis per program (every workload, tier 5k, tier 20k outside
// -short) is rendered in full, then read by everything that consults it — the
// three liveness variants, the parallelizer, the dependence test on every
// loop, and two incremental branches that invalidate and re-analyze
// different leaf procedures — all at once, so -race sees any write; the
// cached analysis must render the same afterwards, and so must each branch.
func TestSummariesAreFrozen(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	for _, w := range workloads.All() {
		inputs = append(inputs, input{w.Name, w.Source})
	}
	tiers := []string{"5k"}
	if !testing.Short() {
		tiers = append(tiers, "20k")
	}
	for _, name := range tiers {
		tier, ok := corpus.TierByName(name)
		if !ok {
			t.Fatalf("no corpus tier %s", name)
		}
		inputs = append(inputs, input{"tier-" + name, tier.Generate().Source})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			res := NewCache().MustAnalyze(in.name, in.src, Options{Workers: 2})
			before := dumpWith(res.Sum, exactTuple)

			var wg sync.WaitGroup
			reader := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f()
				}()
			}
			for _, v := range []liveness.Variant{liveness.Full, liveness.OneBit, liveness.FlowInsensitive} {
				reader(func() { liveness.Analyze(res.Sum, v).DeadStats() })
			}
			reader(func() { parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true}) })
			reader(func() {
				for _, r := range res.Sum.Reg.LoopRegions() {
					depend.AnalyzeLoop(res.Sum, r, depend.Options{UseReductions: true})
				}
			})
			order := res.Prog.BottomUpOrder()
			for _, leaf := range []string{order[0].Name, order[min(1, len(order)-1)].Name} {
				reader(func() {
					inc := NewIncrementalFrom(res, Options{Workers: 2})
					inc.Invalidate(leaf)
					sum, st := inc.Analyze()
					if st.Recomputed == 0 {
						t.Errorf("branch invalidating %s recomputed nothing", leaf)
					}
					if dumpWith(sum, exactTuple) != before {
						t.Errorf("branch re-analyzing %s renders differently from the cached analysis", leaf)
					}
				})
			}
			wg.Wait()

			if dumpWith(res.Sum, exactTuple) != before {
				t.Fatal("the cached analysis renders differently after its consumers ran: something wrote a shared section, record or tuple")
			}
		})
	}
}
