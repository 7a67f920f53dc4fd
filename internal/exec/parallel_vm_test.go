package exec

import (
	"math"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

// TestTripCountBoundary pins the shared trip-count formula on boundary
// cases. The tolerance must be relative to the trip count: the old
// absolute +1e-9 epsilon was swamped by division rounding once the trip
// count reached a few hundred million with fractional steps, dropping the
// final iteration (the last three cases below regress that), and the
// tolerance must behave identically for negative steps.
func TestTripCountBoundary(t *testing.T) {
	cases := []struct {
		lo, hi, step float64
		want         int64
	}{
		{1, 10, 1, 10},
		{10, 1, -1, 10},
		{1, 10, -1, 0}, // wrong-direction step: zero trips
		{10, 1, 1, 0},  // wrong-direction step: zero trips
		{1, 1, 1, 1},   // degenerate single-trip
		{1, 1, -1, 1},  // degenerate single-trip, negative step
		{0.1, 1.0, 0.1, 10},
		{1.0, 0.1, -0.1, 10},
		{0, 0.95, 0.1, 10},  // hi between grid points
		{0.95, 0, -0.1, 10}, // same, descending
		{1, 0.5, -0.25, 3},
		// Large fractional trip counts: the absolute-epsilon formula
		// returns 499999999 for all three (one iteration short).
		{0, 0.7 * 499999999, 0.7, 500000000},
		{0.7 * 499999999, 0, -0.7, 500000000},
		{1, 1 + 0.7*499999999, 0.7, 500000000},
	}
	for _, c := range cases {
		if got := tripCount(c.lo, c.hi, c.step); got != c.want {
			t.Errorf("tripCount(%v, %v, %v) = %d, want %d", c.lo, c.hi, c.step, got, c.want)
		}
	}
}

// TestFractionalStepEnginesAgree runs fractional- and negative-step loops
// on both engines: trip counts and arenas must match bit-for-bit, since
// both engines share tripCount and the multiplicative index recurrence.
func TestFractionalStepEnginesAgree(t *testing.T) {
	srcs := []string{
		`
      PROGRAM main
      REAL x, s
      INTEGER n
      s = 0.0
      n = 0
      DO 10 x = 0.1, 2.0, 0.1
        s = s + x
        n = n + 1
10    CONTINUE
      END
`,
		`
      PROGRAM main
      REAL x, s
      INTEGER n
      s = 0.0
      n = 0
      DO 10 x = 2.0, 0.1, -0.1
        s = s + x
        n = n + 1
10    CONTINUE
      END
`,
		`
      PROGRAM main
      REAL x, s
      INTEGER n
      s = 0.0
      n = 0
      DO 10 x = 1.0, 0.5, -0.25
        s = s + x
        n = n + 1
10    CONTINUE
      END
`,
	}
	for i, src := range srcs {
		tree := New(minif.MustParse("t", src))
		tree.Mode = ModeTree
		if err := tree.Run(); err != nil {
			t.Fatalf("case %d tree: %v", i, err)
		}
		vm := New(minif.MustParse("t", src))
		if err := vm.Run(); err != nil {
			t.Fatalf("case %d vm: %v", i, err)
		}
		if tree.Ops() != vm.Ops() {
			t.Errorf("case %d: ops differ: tree %d vs vm %d", i, tree.Ops(), vm.Ops())
		}
		ta, va := tree.Arena(), vm.Arena()
		for k := range ta {
			if math.Float64bits(ta[k]) != math.Float64bits(va[k]) {
				t.Errorf("case %d: cell %d differs: %g vs %g", i, k, ta[k], va[k])
				break
			}
		}
	}
}

// runPlanned executes redSrc under its reduction plan on one engine and
// returns the finished interpreter.
func runPlanned(t *testing.T, mode ExecMode, workers int, staggered bool) *Interp {
	t.Helper()
	prog := minif.MustParse("t", redSrc)
	plan := planFor(t, prog, workers, staggered)
	in := NewWithPlan(prog, plan)
	in.Mode = mode
	if err := in.Run(); err != nil {
		t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
	}
	return in
}

// TestParallelReductionDeterminism is the regression for the reduction
// finalization nondeterminism: worker contributions are merged in fixed
// index order, so 20 repeated runs at 4 workers must produce bit-identical
// arenas — on both engines, under both finalization disciplines. (The old
// finalization let goroutines race for one mutex, so the floating-point
// combine order — and the low bits of the result — varied run to run.)
func TestParallelReductionDeterminism(t *testing.T) {
	for _, mode := range []ExecMode{ModeTree, ModeAuto} {
		for _, staggered := range []bool{false, true} {
			var first []uint64
			for run := 0; run < 20; run++ {
				in := runPlanned(t, mode, 4, staggered)
				bits := make([]uint64, len(in.Arena()))
				for i, v := range in.Arena() {
					bits[i] = math.Float64bits(v)
				}
				if first == nil {
					first = bits
					continue
				}
				for i := range bits {
					if bits[i] != first[i] {
						t.Fatalf("mode=%v staggered=%v run %d: cell %d differs from run 0: %x vs %x",
							mode, staggered, run, i, bits[i], first[i])
					}
				}
			}
		}
	}
}

// TestParallelVMMatchesTree runs the planned reduction kernel on both
// engines at several worker counts, W=3 among them so the bank blocks and
// their line padding do not fall on power-of-two offsets: the full arenas —
// worker banks included — must be bit-identical, and the virtual clocks
// equal.
func TestParallelVMMatchesTree(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, staggered := range []bool{false, true} {
			tree := runPlanned(t, ModeTree, workers, staggered)
			vm := runPlanned(t, ModeAuto, workers, staggered)
			if tree.Ops() != vm.Ops() {
				t.Errorf("workers=%d staggered=%v: ops differ: tree %d vs vm %d",
					workers, staggered, tree.Ops(), vm.Ops())
			}
			ta, va := tree.Arena(), vm.Arena()
			if len(ta) != len(va) {
				t.Fatalf("workers=%d: arena sizes differ: %d vs %d", workers, len(ta), len(va))
			}
			for i := range ta {
				if math.Float64bits(ta[i]) != math.Float64bits(va[i]) {
					t.Errorf("workers=%d staggered=%v: cell %d differs: %g vs %g",
						workers, staggered, i, ta[i], va[i])
					break
				}
			}
		}
	}
}

// TestParallelStatsCounters checks the per-loop parallel statistics and
// engine counters surfaced through /v1/stats.
func TestParallelStatsCounters(t *testing.T) {
	before := ReadCounters()
	in := runPlanned(t, ModeAuto, 4, true)
	after := ReadCounters()
	stats := in.ParallelStats()
	if len(stats) != 1 {
		t.Fatalf("want 1 planned loop stat, got %d", len(stats))
	}
	st := stats[0]
	if st.Invocations != 1 || st.Workers != 4 {
		t.Errorf("stat = %+v, want 1 invocation at 4 workers", st)
	}
	if st.CritOps <= 0 || st.WorkerOps < st.CritOps {
		t.Errorf("implausible ops: worker=%d crit=%d", st.WorkerOps, st.CritOps)
	}
	if crit := in.CriticalPathOps(); crit <= 0 || crit >= in.Ops() {
		t.Errorf("critical path %d not in (0, %d)", crit, in.Ops())
	}
	if after.ParallelLoopRuns <= before.ParallelLoopRuns {
		t.Errorf("parallel_loop_runs did not advance: %d -> %d", before.ParallelLoopRuns, after.ParallelLoopRuns)
	}
	if after.CompiledViews <= before.CompiledViews {
		t.Errorf("compiled_worker_views did not advance: %d -> %d", before.CompiledViews, after.CompiledViews)
	}
}

// commonRedSrc is the shape the corpus tiers caught the oracle on (5k tier,
// GT3 in /GC3/, e.g. loop SP24/50): a + reduction on a common-block scalar that
// the dispatching procedure has already touched when the planned loop
// starts, planned — as the dependence analysis reports common members —
// under another procedure's symbol for the same (block, offset).
const commonRedSrc = `
      PROGRAM main
      REAL a(64), t
      INTEGER i
      COMMON /acc/ g
      g = 1.5
      DO 5 i = 1, 64
        a(i) = MOD(i, 7) + 0.25
5     CONTINUE
      DO 10 i = 1, 64
        t = a(i) * 1.1
        g = g + t
        CALL bump(t)
10    CONTINUE
      END
      SUBROUTINE bump(x)
      REAL x
      COMMON /acc/ h
      h = h + x * 0.5
      END
`

func runCommonRed(t *testing.T, mode ExecMode, workers int) *Interp {
	t.Helper()
	prog := minif.MustParse("t", commonRedSrc)
	main := prog.Main()
	plan := &ParallelPlan{Workers: workers, Loops: map[*ir.DoLoop]*LoopPlan{}}
	for _, l := range main.Loops() {
		if l.Label == "10" {
			plan.Loops[l] = &LoopPlan{
				Private:    []*ir.Symbol{main.Lookup("T")},
				Reductions: []ReductionPlan{{Sym: prog.ByName["BUMP"].Lookup("H"), Op: "+"}},
				Staggered:  true,
				Chunks:     4,
			}
		}
	}
	in := NewWithPlan(prog, plan)
	in.Mode = mode
	if err := in.Run(); err != nil {
		t.Fatalf("mode=%v W=%d: %v", mode, workers, err)
	}
	return in
}

// TestPlannedCommonReduction holds the one bank-binding rule on the case
// that split the engines: every alias of a reduced common member — the
// dispatching procedure's own included — accumulates into the position's
// bank, so the full arenas (banks included) and the clocks agree between
// the oracle and the VM, the oracle repeats bit for bit, and the shared
// cell ends at the sequential sum.
func TestPlannedCommonReduction(t *testing.T) {
	seq := New(minif.MustParse("t", commonRedSrc))
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	lo, _, _ := seq.Cells(seq.Prog.ByName["MAIN"].Lookup("G"))
	for _, workers := range []int{2, 4} {
		tree := runCommonRed(t, ModeTree, workers)
		vm := runCommonRed(t, ModeAuto, workers)
		if i, ok := sameBits(tree.Arena(), vm.Arena()); !ok {
			t.Errorf("W=%d: cell %d differs: tree %g vs vm %g", workers, i, tree.Arena()[i], vm.Arena()[i])
		}
		if tree.Ops() != vm.Ops() {
			t.Errorf("W=%d: ops differ: tree %d vs vm %d", workers, tree.Ops(), vm.Ops())
		}
		if err := Validate(seq.Arena()[lo:lo+1], tree.Arena()[lo:lo+1], 1e-9); err != nil {
			t.Errorf("W=%d: reduced common vs sequential: %v", workers, err)
		}
		for run := 1; run < 5; run++ {
			if i, ok := sameBits(tree.Arena(), runCommonRed(t, ModeTree, workers).Arena()); !ok {
				t.Fatalf("W=%d tree run %d: cell %d differs from run 0", workers, run, i)
			}
		}
	}
}
