package summary_test

import (
	"fmt"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// TestSameExprMatchesPrinted checks that the reduction classifiers answer
// the same whether they compare expressions structurally (ir.SameExpr) or
// by printed form, for every assignment and IF of every workload, the quick
// ladder and 40 generated programs.
func TestSameExprMatchesPrinted(t *testing.T) {
	srcs := map[string]string{}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	for _, tier := range corpus.QuickLadder() {
		srcs["tier"+tier.Name] = tier.Generate().Source
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := corpus.Config{
			TargetLines: 300 + 40*int(seed), CallDepth: 1 + int(seed)%5, CallFanout: 1 + int(seed)%3,
			LoopDepth: 1 + int(seed)%3, AliasDensity: 0.4, ReductionMix: 0.3, TripLo: 2, TripHi: 8,
		}
		srcs[fmt.Sprintf("gen-seed%d", seed)] = corpus.Generate(seed, cfg).Source
	}
	updates, minmax := 0, 0
	for name, src := range srcs {
		prog, err := minif.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range prog.Procs {
			ir.WalkStmts(p.Body, func(s ir.Stmt) bool {
				switch st := s.(type) {
				case *ir.Assign:
					op, ok := summary.ClassifyUpdate(st)
					wop, wok := summary.PrintedClassifyUpdate(st)
					if op != wop || ok != wok {
						t.Errorf("%s line %d: ClassifyUpdate %q %v, printed %q %v", name, st.Pos.Line, op, ok, wop, wok)
					}
					if ok {
						updates++
					}
				case *ir.If:
					op, upd := summary.ClassifyMinMaxIf(st)
					wop, wupd := summary.PrintedClassifyMinMaxIf(st)
					if op != wop || upd != wupd {
						t.Errorf("%s line %d: ClassifyMinMaxIf %q, printed %q", name, st.Pos.Line, op, wop)
					}
					if upd != nil {
						minmax++
					}
				}
				return true
			})
		}
	}
	if updates == 0 || minmax == 0 {
		t.Fatalf("%d updates and %d guarded MIN/MAX updates recognized: the inputs exercise nothing", updates, minmax)
	}
}
