// Package suifx's root benchmark harness: one benchmark per reproduced
// paper table/figure (each regenerates the table from scratch — parse,
// analyze, profile, model) plus ablation benchmarks for the design choices
// DESIGN.md calls out. Key reproduced values are attached as custom metrics
// so `go test -bench` output doubles as an experiment record.
package suifx_test

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/experiments"
	"suifx/internal/ir"
	"suifx/internal/issa"
	"suifx/internal/liveness"
	"suifx/internal/machine"
	"suifx/internal/minif"
	"suifx/internal/slice"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

func benchTable(b *testing.B, gen func() *experiments.Table) *experiments.Table {
	b.Helper()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = gen()
	}
	return t
}

func metric(b *testing.B, t *experiments.Table, row, col int, name string) {
	b.Helper()
	s := t.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimSuffix(s, " ms"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		// A silently-skipped metric would let a renamed column or reshaped
		// table rot the benchmark record without anyone noticing.
		b.Fatalf("metric %s: cell [%d][%d] of %s = %q is not numeric: %v", name, row, col, t.ID, s, err)
	}
	b.ReportMetric(v, name)
}

// ---- Chapter 4 ----

func BenchmarkFig4_1(b *testing.B) {
	t := benchTable(b, experiments.Fig4_1)
	metric(b, t, 0, 4, "mdg_auto_coverage_%")
	metric(b, t, 0, 6, "mdg_auto_speedup8")
}

func BenchmarkFig4_7(b *testing.B) {
	t := benchTable(b, experiments.Fig4_7)
	if v, err := strconv.Atoi(t.Rows[4][5]); err == nil {
		b.ReportMetric(float64(v), "user_parallelized_loops")
	}
}

func BenchmarkFig4_8(b *testing.B) {
	t := benchTable(b, experiments.Fig4_8)
	last := t.Rows[len(t.Rows)-1]
	if v, err := strconv.ParseFloat(strings.TrimSuffix(last[5], "%"), 64); err == nil {
		b.ReportMetric(v, "avg_prog_slice_AR_%")
	}
}

func BenchmarkFig4_9(b *testing.B) { benchTable(b, experiments.Fig4_9) }
func BenchmarkFig4_10(b *testing.B) {
	t := benchTable(b, experiments.Fig4_10)
	metric(b, t, 1, 5, "mdg_user_speedup8")
}

// ---- Chapter 5 ----

func BenchmarkFig5_5(b *testing.B) { benchTable(b, experiments.Fig5_5) }
func BenchmarkFig5_6(b *testing.B) { benchTable(b, experiments.Fig5_6) }
func BenchmarkFig5_7(b *testing.B) {
	t := benchTable(b, experiments.Fig5_7)
	metric(b, t, 0, 5, "hydro_dead_full_%")
}
func BenchmarkFig5_8(b *testing.B)  { benchTable(b, experiments.Fig5_8) }
func BenchmarkFig5_10(b *testing.B) { benchTable(b, experiments.Fig5_10) }
func BenchmarkFig5_12(b *testing.B) {
	t := benchTable(b, experiments.Fig5_12)
	last := t.Rows[len(t.Rows)-1]
	metric(b, t, len(t.Rows)-1, 1, "flo88_32p_without")
	_ = last
	metric(b, t, len(t.Rows)-1, 2, "flo88_32p_with_contraction")
}

// ---- Chapter 6 ----

func BenchmarkFig6_1(b *testing.B) { benchTable(b, experiments.Fig6_1) }
func BenchmarkFig6_2(b *testing.B) { benchTable(b, experiments.Fig6_2) }
func BenchmarkFig6_3(b *testing.B) { benchTable(b, experiments.Fig6_3) }
func BenchmarkFig6_4(b *testing.B) { benchTable(b, experiments.Fig6_4) }
func BenchmarkFig6_5(b *testing.B) { benchTable(b, experiments.Fig6_5) }
func BenchmarkFig6_6(b *testing.B) {
	t := benchTable(b, experiments.Fig6_6)
	metric(b, t, 0, 2, "su2cor_speedup_with_red")
}
func BenchmarkFig6_7(b *testing.B) { benchTable(b, experiments.Fig6_7) }

// ---- Component benchmarks ----

// BenchmarkAnalyzeHydro measures the full interprocedural analysis pipeline
// on the largest ch4 application.
func BenchmarkAnalyzeHydro(b *testing.B) {
	w := workloads.ByName("hydro")
	for i := 0; i < b.N; i++ {
		sum := summary.Analyze(w.Fresh())
		liveness.Analyze(sum, liveness.Full)
	}
}

// seqBaseline measures the per-run cost of fn outside the benchmark timer,
// for speedup-vs-sequential metrics.
func seqBaseline(fn func()) time.Duration {
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / reps
}

// reportSpeedup attaches the speedup of the timed loop over the sequential
// baseline. On a single-CPU runner this hovers around 1.0; the ≥1.5×
// targets apply to multi-core runners.
func reportSpeedup(b *testing.B, seq time.Duration) {
	b.Helper()
	par := float64(b.Elapsed()) / float64(b.N)
	if par > 0 {
		b.ReportMetric(float64(seq)/par, "speedup_vs_sequential")
	}
}

// BenchmarkAnalyzeHydroParallel measures the concurrent driver against the
// sequential analyzer on the deepest single call graph (intra-program SCC
// parallelism).
func BenchmarkAnalyzeHydroParallel(b *testing.B) {
	w := workloads.ByName("hydro")
	seq := seqBaseline(func() {
		sum := summary.Analyze(w.Fresh())
		liveness.Analyze(sum, liveness.Full)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := driver.Analyze(w.Fresh(), driver.Options{})
		liveness.Analyze(sum, liveness.Full)
	}
	b.StopTimer()
	reportSpeedup(b, seq)
}

// BenchmarkAnalyzeSuiteParallel measures cross-workload fan-out: all
// benchmark applications analyzed at once on a bounded pool, the way the
// experiment driver regenerates tables, vs one-at-a-time sequentially.
func BenchmarkAnalyzeSuiteParallel(b *testing.B) {
	ws := workloads.All()
	seq := seqBaseline(func() {
		for _, w := range ws {
			summary.Analyze(w.Fresh())
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for _, w := range ws {
			wg.Add(1)
			go func(w *workloads.Workload) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				driver.Analyze(w.Fresh(), driver.Options{})
			}(w)
		}
		wg.Wait()
	}
	b.StopTimer()
	reportSpeedup(b, seq)
}

// BenchmarkAnalyzeSuiteCached measures the summary cache: repeated requests
// for already-analyzed workloads (the table-regeneration hot path) against
// re-deriving every analysis from source.
func BenchmarkAnalyzeSuiteCached(b *testing.B) {
	ws := workloads.All()
	seq := seqBaseline(func() {
		for _, w := range ws {
			summary.Analyze(w.Fresh())
		}
	})
	cache := driver.NewCache()
	for _, w := range ws { // warm
		cache.MustAnalyze(w.Name, w.Source, driver.Options{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			cache.MustAnalyze(w.Name, w.Source, driver.Options{})
		}
	}
	b.StopTimer()
	reportSpeedup(b, seq)
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationSliceSummaries compares memoized hierarchical slicing
// against a fresh slicer per query (no cross-query summary reuse).
func BenchmarkAblationSliceSummaries(b *testing.B) {
	prog := workloads.ByName("hydro").Fresh()
	g := issa.Build(prog)
	queries := [][3]interface{}{}
	for _, n := range g.Nodes {
		if n.Kind == issa.KDef && len(queries) < 24 {
			queries = append(queries, [3]interface{}{n.Proc, n.Sym.Name, n.Line})
		}
	}
	b.Run("shared-summaries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := slice.New(g, slice.Config{Kind: slice.Program})
			for _, q := range queries {
				s.OfUse(q[0].(string), q[1].(string), q[2].(int))
			}
		}
	})
	b.Run("fresh-per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				s := slice.New(g, slice.Config{Kind: slice.Program})
				s.OfUse(q[0].(string), q[1].(string), q[2].(int))
			}
		}
	})
}

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

// BenchmarkAblationLivenessVariant compares the three §5.2.3 algorithm
// variants' analysis cost.
func BenchmarkAblationLivenessVariant(b *testing.B) {
	sum := summary.Analyze(workloads.ByName("hydro").Fresh())
	for _, v := range []liveness.Variant{liveness.FlowInsensitive, liveness.OneBit, liveness.Full} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				liveness.Analyze(sum, v)
			}
		})
	}
}

// BenchmarkParallelRuntime measures real goroutine execution of the
// user-parallelized mdg against its sequential run.
func BenchmarkParallelRuntime(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run("workers-"+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := experiments.ValidateUserParallelization("mdg", workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachineModel measures the cost-model evaluation itself.
func BenchmarkMachineModel(b *testing.B) {
	m := machine.AlphaServer8400()
	w := machine.Workload{
		Loops: []machine.LoopWork{{
			ID: "l", Invocations: 10, TotalOps: 1 << 24, Parallel: true,
			FootprintElems: 1 << 20, ReductionElems: 512,
		}},
		SerialOps: 1 << 20,
	}
	for i := 0; i < b.N; i++ {
		for p := 1; p <= 32; p *= 2 {
			m.Speedup(w, p)
		}
	}
}
