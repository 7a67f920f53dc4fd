package exec_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/workloads"
)

// execRunResult analyzes one exec-run program the way that workload's
// set-up does.
func execRunResult(name string) *parallel.Result {
	wl := workloads.ByName(name)
	return parallel.ParallelizeWith(driver.Analyze(wl.Fresh(), driver.Options{}),
		parallel.Config{UseReductions: true, Assertions: wl.Assertions()})
}

// TestPlannedCounterPin pins the engine counters one planned mdg run at two
// workers advances, recorded before worker VMs stopped adding retired
// instructions to the global counter after every iteration: folding the
// count once per position must not change it.
func TestPlannedCounterPin(t *testing.T) {
	res := execRunResult("mdg")
	plan := parallel.BuildPlanOpts(res, parallel.PlanOptions{Workers: 2, Staggered: true, Chunks: 4})
	in := exec.NewWithPlan(res.Prog, plan)
	c0 := exec.ReadCounters()
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	c1 := exec.ReadCounters()
	got := [4]int64{in.Ops(), c1.Instructions - c0.Instructions,
		c1.ParallelLoopRuns - c0.ParallelLoopRuns, c1.ParallelWorkers - c0.ParallelWorkers}
	if want := [4]int64{3639588, 2423496, 13, 26}; got != want {
		t.Errorf("ops, instructions, loop runs, workers = %v, want %v", got, want)
	}
}

// ownedRange is a run of cells one plan worker writes.
type ownedRange struct {
	exec.CellRange
	worker int
}

// closeRanges returns two ranges of different workers whose cells come
// within a 64-byte line (8 cells) of each other, if there are any.
func closeRanges(rs []ownedRange) (a, b ownedRange, found bool) {
	const lineCells = 64 / 8
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	reach := map[int]ownedRange{} // per worker, its range ending furthest so far
	for _, r := range rs {
		for w, prev := range reach {
			if w != r.worker && r.Lo-(prev.Hi-1) < lineCells {
				return prev, r, true
			}
		}
		if prev, ok := reach[r.worker]; !ok || r.Hi > prev.Hi {
			reach[r.worker] = r
		}
	}
	return a, b, false
}

// TestBankLinesDisjoint holds the plan layout's cache-line rule on the five
// exec-run programs and the 1k corpus tier at W ∈ {2,3,4,8}: any two cells
// different workers write during one planned loop — cells of two banks, a
// bank cell and another worker's scratch block, two scratch blocks — are at
// least one 64-byte line apart. (TestArenaCap refuses an over-cap plan
// under this layout.)
func TestBankLinesDisjoint(t *testing.T) {
	var results []*parallel.Result
	for _, name := range []string{"mdg", "hydro", "applu", "arc3d", "flo88"} {
		results = append(results, execRunResult(name))
	}
	tier, _ := corpus.TierByName("1k")
	src := tier.Generate()
	results = append(results, parallel.Parallelize(minif.MustParse(src.Name, src.Source),
		parallel.Config{UseReductions: true}))
	for _, res := range results {
		for _, workers := range []int{2, 3, 4, 8} {
			plan := parallel.BuildPlan(res, workers)
			banks, temps := exec.PlanCellsForTest(exec.NewWithPlan(res.Prog, plan))
			if len(banks) != len(plan.Loops) || len(temps) != workers {
				t.Fatalf("%s W=%d: %d loops and %d scratch blocks laid out, want %d and %d",
					res.Prog.Name, workers, len(banks), len(temps), len(plan.Loops), workers)
			}
			for _, loop := range banks {
				var rs []ownedRange
				for w, cells := range loop {
					for _, c := range cells {
						rs = append(rs, ownedRange{c, w})
					}
				}
				for w, c := range temps {
					rs = append(rs, ownedRange{c, w})
				}
				if a, b, found := closeRanges(rs); found {
					t.Fatalf("%s W=%d: worker %d's cells %v and worker %d's cells %v share a line",
						res.Prog.Name, workers, a.worker, a.CellRange, b.worker, b.CellRange)
				}
			}
		}
	}
}

// budgetSrc is a planned outer loop (J private) whose inner loop runs two
// billion iterations: only the operation budget can stop it.
const budgetSrc = `
      PROGRAM MAIN
      REAL A(2)
      INTEGER I, J
      DO 10 I = 1, 2
        DO 20 J = 1, 2000000000
          A(I) = A(I) + 1.0
20      CONTINUE
10    CONTINUE
      WRITE(*,*) A(1)
      END
`

// TestPlannedRunBudget holds a planned run to MaxOps on both engines: each
// position runs under the budget left at dispatch, so the run fails with
// the sequential run's budget error instead of finishing the positions.
func TestPlannedRunBudget(t *testing.T) {
	prog := minif.MustParse("budget.f", budgetSrc)
	res := parallel.Parallelize(prog, parallel.Config{UseReductions: true})
	run := func(in *exec.Interp, mode exec.ExecMode) error {
		in.Mode = mode
		in.MaxOps = 1_000_000
		done := make(chan error, 1)
		go func() { done <- in.Run() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("mode=%v: run still going after 10 s under a budget of 1e6 ops", mode)
			return nil
		}
	}
	for _, mode := range []exec.ExecMode{exec.ModeAuto, exec.ModeTree} {
		want := run(exec.New(prog), mode)
		if want == nil || !strings.Contains(want.Error(), "operation budget exceeded") {
			t.Fatalf("mode=%v: sequential run = %v, want the budget error", mode, want)
		}
		for _, workers := range []int{2, 4} {
			plan := parallel.BuildPlan(res, workers)
			if len(plan.Loops) == 0 {
				t.Fatalf("W=%d: MAIN/10 not planned", workers)
			}
			if err := run(exec.NewWithPlan(prog, plan), mode); err == nil || err.Error() != want.Error() {
				t.Errorf("mode=%v W=%d: planned run = %v, want %v", mode, workers, err, want)
			}
		}
	}
}
