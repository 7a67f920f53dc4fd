package experiments

import (
	"fmt"
	"math"
	"testing"

	"suifx/internal/exec"
	"suifx/internal/parallel"
	"suifx/internal/workloads"
)

// The Chapter 4/6 speedup experiments re-run on the execution engines
// themselves (not just the machine cost model): a workload's user-assisted
// parallelization is lowered to a runtime plan and executed, and speedup is
// reported in virtual time — sequential ops over the parallel run's
// critical-path ops under the §4.5 even-chunk schedule. Virtual time is
// deterministic and independent of the host's core count, so the curves are
// reproducible on a single-core CI runner where wall-clock parallel speedup
// is physically impossible.

// parallelRunOptions selects the engine and schedule for runParallel.
type parallelRunOptions struct {
	Workers   int
	Mode      exec.ExecMode
	Staggered bool // §6.3.4 chunked finalization vs §6.3.2 single-lock
	Chunks    int
}

// runParallel executes one workload under the plan derived from its
// user-assisted Chapter 4 parallelization and returns the finished
// interpreter (arena, ops and parallel stats intact) plus the analysis
// result the plan came from.
func runParallel(name string, opt parallelRunOptions) (*exec.Interp, *parallel.Result, error) {
	w, ok := workloads.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	res := userAssisted(w).Par
	plan := parallel.BuildPlanOpts(res, parallel.PlanOptions{
		Workers: opt.Workers, Staggered: opt.Staggered, Chunks: opt.Chunks,
	})
	in := exec.NewWithPlan(res.Prog, plan)
	in.Mode = opt.Mode
	if err := in.Run(); err != nil {
		return nil, nil, err
	}
	return in, res, nil
}

// parallelPoint is one point of a virtual-time speedup curve.
type parallelPoint struct {
	Workers   int
	SeqOps    int64   // sequential run's total ops
	CritOps   int64   // parallel run's critical-path ops
	VTSpeedup float64 // SeqOps / CritOps
}

// parallelSpeedups runs one workload's plan at each worker count on the
// bytecode engine and reports the virtual-time speedup curve.
func parallelSpeedups(name string, workers []int) ([]parallelPoint, error) {
	w, ok := workloads.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	seq := exec.New(cached(w).Prog)
	if err := seq.Run(); err != nil {
		return nil, err
	}
	out := make([]parallelPoint, 0, len(workers))
	for _, n := range workers {
		in, _, err := runParallel(name, parallelRunOptions{
			Workers: n, Staggered: true, Chunks: 4,
		})
		if err != nil {
			return nil, err
		}
		crit := in.CriticalPathOps()
		pt := parallelPoint{Workers: n, SeqOps: seq.Ops(), CritOps: crit}
		if crit > 0 {
			pt.VTSpeedup = float64(seq.Ops()) / float64(crit)
		}
		out = append(out, pt)
	}
	return out, nil
}

// parallelWorkloads returns every workload whose user-assisted plan
// approves at least one loop (the others have no parallel execution to
// differentiate).
func parallelWorkloads(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, w := range workloads.All() {
		_, res, err := runParallel(w.Name, parallelRunOptions{
			Workers: 1, Mode: exec.ModeTree, Staggered: true, Chunks: 4,
		})
		if err != nil {
			t.Fatalf("%s: probe run: %v", w.Name, err)
		}
		chosen := 0
		for _, li := range res.Ordered {
			if li.Chosen {
				chosen++
			}
		}
		if chosen > 0 {
			out = append(out, w.Name)
		}
	}
	if len(out) == 0 {
		t.Fatal("no workload has an approved parallel loop")
	}
	return out
}

func bitsEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestParallelDifferentialEngines runs every parallel workload under its
// plan at W ∈ {1, 2, 4, 8} on both engines. They execute the same
// schedule with the same deterministic finalization order, so the full
// arena images — worker banks included — must be bit-identical at every
// worker count, not merely tolerance-close.
func TestParallelDifferentialEngines(t *testing.T) {
	for _, name := range parallelWorkloads(t) {
		for _, workers := range []int{1, 2, 4, 8} {
			tree, _, err := runParallel(name, parallelRunOptions{
				Workers: workers, Mode: exec.ModeTree, Staggered: true, Chunks: 4,
			})
			if err != nil {
				t.Fatalf("%s W=%d tree: %v", name, workers, err)
			}
			vmRun, _, err := runParallel(name, parallelRunOptions{
				Workers: workers, Staggered: true, Chunks: 4,
			})
			if err != nil {
				t.Fatalf("%s W=%d vm: %v", name, workers, err)
			}
			if i, ok := bitsEqual(tree.Arena(), vmRun.Arena()); !ok {
				t.Errorf("%s W=%d: arenas differ from tree at cell %d: %g vs %g",
					name, workers, i, tree.Arena()[i], vmRun.Arena()[i])
			}
			if tree.Ops() != vmRun.Ops() {
				t.Errorf("%s W=%d: ops differ: tree %d vs vm %d",
					name, workers, tree.Ops(), vmRun.Ops())
			}
		}
	}
}

// TestParallelVsSequential is the §6.5.2 validation across engines and
// worker counts: the parallel run must match a sequential run after masking
// privatized storage, with tolerance only for reduction reassociation.
func TestParallelVsSequential(t *testing.T) {
	for _, name := range parallelWorkloads(t) {
		for _, workers := range []int{1, 2, 4} {
			for _, mode := range []exec.ExecMode{exec.ModeTree, exec.ModeAuto} {
				if err := validateParallelRun(name, workers, mode, true); err != nil {
					t.Errorf("%s W=%d mode=%v: %v", name, workers, mode, err)
				}
			}
		}
	}
}

// TestFinalizationEquivalence: the §6.3.2 single-lock and §6.3.4 staggered
// disciplines combine worker contributions in the same fixed order, so
// their results must be bit-identical — on both engines.
func TestFinalizationEquivalence(t *testing.T) {
	for _, name := range parallelWorkloads(t) {
		for _, mode := range []exec.ExecMode{exec.ModeTree, exec.ModeAuto} {
			single, _, err := runParallel(name, parallelRunOptions{
				Workers: 4, Mode: mode, Staggered: false,
			})
			if err != nil {
				t.Fatalf("%s single-lock: %v", name, err)
			}
			stag, _, err := runParallel(name, parallelRunOptions{
				Workers: 4, Mode: mode, Staggered: true, Chunks: 8,
			})
			if err != nil {
				t.Fatalf("%s staggered: %v", name, err)
			}
			if i, ok := bitsEqual(single.Arena(), stag.Arena()); !ok {
				t.Errorf("%s mode=%v: single-lock vs staggered differ at cell %d: %g vs %g",
					name, mode, i, single.Arena()[i], stag.Arena()[i])
			}
		}
	}
}

// TestParallelSpeedupCurves regenerates the Chapter 4/6 virtual-time
// speedup curves on the bytecode engine and checks they behave like
// speedup curves: monotone non-degrading at W=1 and ≥ 2x at 4 workers for
// at least one workload (the BENCH_parallel.json acceptance bar).
func TestParallelSpeedupCurves(t *testing.T) {
	best := 0.0
	bestName := ""
	for _, name := range parallelWorkloads(t) {
		pts, err := parallelSpeedups(name, []int{1, 2, 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pt := range pts {
			t.Logf("%s W=%d: seq=%d crit=%d vt_speedup=%.2f",
				name, pt.Workers, pt.SeqOps, pt.CritOps, pt.VTSpeedup)
		}
		if pts[0].VTSpeedup < 0.99 || pts[0].VTSpeedup > 1.01 {
			t.Errorf("%s: W=1 virtual-time speedup should be ~1.0, got %.3f", name, pts[0].VTSpeedup)
		}
		if s := pts[2].VTSpeedup; s > best {
			best, bestName = s, name
		}
	}
	if best < 2.0 {
		t.Errorf("no workload reaches 2x virtual-time speedup at 4 workers (best %.2f on %s)", best, bestName)
	} else {
		t.Logf("best 4-worker virtual-time speedup: %.2f (%s)", best, bestName)
	}
}
