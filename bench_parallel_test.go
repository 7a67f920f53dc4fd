// Parallel bytecode-engine benchmarks, committed as BENCH_parallel.json
// (see EXPERIMENTS.md). Each sub-benchmark times a full plan-driven run on
// the bytecode engine and attaches the deterministic virtual-time speedup
// (sequential ops over critical-path ops) as a custom metric, so the curve
// is reproducible on a single-core runner where wall-clock parallel
// speedup is physically impossible.
package suifx_test

import (
	"strconv"
	"testing"

	"suifx/internal/experiments"
)

// BenchmarkParallelEngine runs three representative workloads' approved
// plans at 1/2/4/8 workers on the bytecode VM. Sub-benchmark names avoid a
// trailing -N so benchjson's procs-suffix stripping can't eat the worker
// count.
func BenchmarkParallelEngine(b *testing.B) {
	for _, app := range []string{"mdg", "applu", "hydro"} {
		workers := []int{1, 2, 4, 8}
		pts, err := experiments.ParallelSpeedups(app, workers)
		if err != nil {
			b.Fatal(err)
		}
		for i, n := range workers {
			pt := pts[i]
			b.Run(app+"/"+strconv.Itoa(n)+"w", func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					_, _, err := experiments.RunParallel(app, experiments.ParallelRunOptions{
						Workers: n, Staggered: true, Chunks: 4,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pt.VTSpeedup, "vt_speedup")
				b.ReportMetric(float64(pt.CritOps), "crit_ops")
			})
		}
	}
}
