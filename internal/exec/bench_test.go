package exec_test

import (
	"testing"

	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// BenchmarkAblationReductionFinalize compares the §6.3 finalization
// strategies with real goroutines on the histogram kernel.
func BenchmarkAblationReductionFinalize(b *testing.B) {
	const src = `
      PROGRAM hist
      REAL h(4096)
      INTEGER ind(20000), i
      DO 5 i = 1, 20000
        ind(i) = MOD(i * 37, 4096) + 1
5     CONTINUE
      DO 10 i = 1, 20000
        h(ind(i)) = h(ind(i)) + 1.0
10    CONTINUE
      END
`
	for _, cfg := range []struct {
		name      string
		staggered bool
		chunks    int
	}{
		{"serialized", false, 0},
		{"staggered-8", true, 8},
		{"staggered-64", true, 64},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := minif.MustParse("hist", src)
				main := prog.Main()
				l10 := main.Loops()[1]
				plan := &exec.ParallelPlan{
					Workers: 8,
					Loops: map[*ir.DoLoop]*exec.LoopPlan{
						l10: {
							Reductions: []exec.ReductionPlan{{Sym: main.Lookup("H"), Op: "+"}},
							Staggered:  cfg.staggered, Chunks: cfg.chunks,
						},
					},
				}
				in := exec.NewWithPlan(prog, plan)
				if err := in.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDynDep compares full dynamic-dependence instrumentation
// against the §2.5.2 iteration-sampling optimization.
func BenchmarkAblationDynDep(b *testing.B) {
	w := workloads.ByName("mdg")
	for _, cfg := range []struct {
		name   string
		sample int64
	}{{"full", 0}, {"sample-10", 10}, {"sample-100", 100}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var accesses int64
			for i := 0; i < b.N; i++ {
				in := exec.New(w.Fresh())
				d := exec.NewDynDep(in)
				d.SampleEvery = cfg.sample
				if err := in.Run(); err != nil {
					b.Fatal(err)
				}
				accesses = d.Accesses()
			}
			b.ReportMetric(float64(accesses), "instrumented_accesses")
		})
	}
}
