package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

// TestSchedulePartition proves the §4.5 dispatcher is a partition into
// contiguous chunks: over all positions, each iteration of [0, trips) is
// executed exactly once, in increasing order with no gap inside a position,
// positions hold increasing ranges, and the last position holds trips-1 —
// the §5.4 storage-binding contract planWorkerIDs relies on.
func TestSchedulePartition(t *testing.T) {
	cases := []struct {
		trips   int64
		workers int
	}{
		{0, 4}, {1, 1}, {1, 4}, {2, 4}, {3, 4}, {4, 4}, {5, 4}, {3, 2}, {7, 3},
		{7, 8}, {8, 8}, {9, 8}, {10, 4}, {100, 7}, {1000, 8}, {37, 5}, {64, 8},
	}
	for _, c := range cases {
		seen := make([]int, c.trips)
		lastSeenPos := -1
		prev := int64(-1) // carried across positions: ranges must ascend
		for pos := 0; pos < c.workers; pos++ {
			first := true
			err := forEachAssigned(c.trips, c.workers, pos, func(it int64) error {
				if it < 0 || it >= c.trips {
					t.Fatalf("trips=%d W=%d pos=%d: iteration %d out of range", c.trips, c.workers, pos, it)
				}
				if it <= prev || !first && it != prev+1 {
					t.Fatalf("trips=%d W=%d pos=%d: iteration %d after %d (not an ascending contiguous chunk)",
						c.trips, c.workers, pos, it, prev)
				}
				prev, first = it, false
				seen[it]++
				if it == c.trips-1 {
					lastSeenPos = pos
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for it, n := range seen {
			if n != 1 {
				t.Fatalf("trips=%d W=%d: iteration %d executed %d times", c.trips, c.workers, it, n)
			}
		}
		if c.trips > 0 && lastSeenPos != c.workers-1 {
			t.Fatalf("trips=%d W=%d: position %d ran the last iteration, want %d",
				c.trips, c.workers, lastSeenPos, c.workers-1)
		}
	}
}

// TestPlanWorkerIDs pins the §5.4 bank rule: positions 0..W-2 use their own
// banks and position W-1 — the one that runs iteration trips-1 — uses the
// last plan worker's, whatever the loop's width.
func TestPlanWorkerIDs(t *testing.T) {
	for planWorkers := 1; planWorkers <= 8; planWorkers++ {
		for workers := 1; workers <= planWorkers; workers++ {
			ids := planWorkerIDs(planWorkers, workers)
			seen := map[int]bool{}
			for p, id := range ids {
				want := p
				if p == workers-1 {
					want = planWorkers - 1
				}
				if id != want || seen[id] {
					t.Fatalf("plan=%d W=%d: ids = %v", planWorkers, workers, ids)
				}
				seen[id] = true
			}
		}
	}
}

// runPlannedDisc executes redSrc under its reduction plan with the given
// finalization discipline and returns the finished interpreter.
func runPlannedDisc(t *testing.T, mode ExecMode, workers int, staggered bool) *Interp {
	t.Helper()
	prog := minif.MustParse("t", redSrc)
	in := NewWithPlan(prog, planFor(t, prog, workers, staggered))
	in.Mode = mode
	if err := in.Run(); err != nil {
		t.Fatalf("mode=%v workers=%d staggered=%v: %v", mode, workers, staggered, err)
	}
	return in
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, len(a) == len(b)
}

// TestScheduleDispatchAgreement pins dispatch agreement between the two
// runtimes over W ∈ {1,2,4,8} × {single-lock, staggered}: both execute the
// same assignment bit-for-bit with the same virtual time and the same
// observed width, and the §5.4 storage rule holds — the planned run's live
// arena matches sequential.
func TestScheduleDispatchAgreement(t *testing.T) {
	seq := New(minif.MustParse("t", redSrc))
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	n := seq.ArenaSize()
	for _, staggered := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			tree := runPlannedDisc(t, ModeTree, workers, staggered)
			vm := runPlannedDisc(t, ModeAuto, workers, staggered)
			for _, in := range []*Interp{tree, vm} {
				stats := in.ParallelStats()
				if len(stats) != 1 || stats[0].Workers != workers {
					t.Fatalf("staggered=%v W=%d: stats = %+v", staggered, workers, stats)
				}
			}
			if tree.Ops() != vm.Ops() {
				t.Errorf("staggered=%v W=%d: ops differ: tree %d vs vm %d", staggered, workers, tree.Ops(), vm.Ops())
			}
			if i, ok := sameBits(tree.Arena(), vm.Arena()); !ok {
				t.Errorf("staggered=%v W=%d: cell %d differs between engines", staggered, workers, i)
			}
			if err := Validate(seq.Arena()[:n], vm.Arena()[:n], 1e-9); err != nil {
				t.Errorf("staggered=%v W=%d vs sequential: %v", staggered, workers, err)
			}
		}
	}
}

// TestScheduleReductionDeterminism is the PR 5 bit-identity regression over
// the discipline × W ∈ {1,2,4,8} matrix: 20 repeated runs of the reduction
// kernel must produce bit-identical arenas for every combination on both
// engines, since worker contributions merge in fixed index order.
func TestScheduleReductionDeterminism(t *testing.T) {
	for _, mode := range []ExecMode{ModeTree, ModeAuto} {
		for _, staggered := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4, 8} {
				first := runPlannedDisc(t, mode, workers, staggered).Arena()
				for run := 1; run < 20; run++ {
					got := runPlannedDisc(t, mode, workers, staggered).Arena()
					if i, ok := sameBits(first, got); !ok {
						t.Fatalf("mode=%v staggered=%v W=%d run %d: cell %d differs: %x vs %x", mode, staggered,
							workers, run, i, math.Float64bits(got[i]), math.Float64bits(first[i]))
					}
				}
			}
		}
	}
}

// TestScheduleBoundaryAssignments pins the exact per-position chunks at the
// dispatch boundaries: zero trips (nobody runs), fewer trips than positions
// (interior holes, the last position still holds trips-1), and trips at
// W-1, W and W+1.
func TestScheduleBoundaryAssignments(t *testing.T) {
	cases := []struct {
		trips   int64
		workers int
		want    [][]int64
	}{
		{0, 4, [][]int64{{}, {}, {}, {}}},
		{1, 4, [][]int64{{}, {}, {}, {0}}},
		{2, 4, [][]int64{{}, {0}, {}, {1}}},
		{3, 4, [][]int64{{}, {0}, {1}, {2}}},
		{4, 4, [][]int64{{0}, {1}, {2}, {3}}},
		{5, 4, [][]int64{{0}, {1}, {2}, {3, 4}}},
		{7, 2, [][]int64{{0, 1, 2}, {3, 4, 5, 6}}},
	}
	for _, c := range cases {
		for pos := 0; pos < c.workers; pos++ {
			got := []int64{}
			err := forEachAssigned(c.trips, c.workers, pos, func(it int64) error {
				got = append(got, it)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := c.want[pos]; !slices.Equal(got, want) {
				t.Fatalf("trips=%d W=%d pos=%d: got %v, want %v", c.trips, c.workers, pos, got, want)
			}
		}
	}
}

// boundarySrc runs planned loops at the dispatch boundaries of a 4-worker
// plan: loop 10 has fewer trips (2) than workers, loop 20 has zero trips,
// loops 30/40/50 have W-1, W and W+1 trips, and loop 60 has a fractional
// step (7 trips of 0.25).
const boundarySrc = `
      PROGRAM main
      REAL a(8), s(8), u(8), x
      INTEGER i, n, m
      n = 2
      m = 0
      DO 5 i = 1, 8
        a(i) = i * 2.0
        s(i) = 0.0
        u(i) = 0.0
5     CONTINUE
      DO 10 i = 1, n
        s(i) = a(i) + 1.0
10    CONTINUE
      DO 20 i = 1, m
        s(i) = 99.0
20    CONTINUE
      DO 30 i = 1, 3
        s(i) = s(i) + a(i)
30    CONTINUE
      DO 40 i = 1, 4
        s(i) = s(i) * 2.0
40    CONTINUE
      DO 50 i = 1, 5
        s(i) = s(i) + i
50    CONTINUE
      DO 60 x = 0.25, 1.75, 0.25
        u(INT(x * 4.0)) = x * a(INT(x * 4.0))
60    CONTINUE
      WRITE(*,*) s(1), s(2), s(3), u(7)
      END
`

// TestScheduleBoundaryTierAgreement runs the boundary loops on both engines
// and requires bit-identical results, equal to the sequential run's: a
// partial or empty assignment must not desynchronize either dispatch.
func TestScheduleBoundaryTierAgreement(t *testing.T) {
	seq := New(minif.MustParse("t", boundarySrc))
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	var ref *Interp
	for _, mode := range []ExecMode{ModeTree, ModeAuto} {
		prog := minif.MustParse("t", boundarySrc)
		plan := &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{}}
		for _, l := range prog.Main().Loops() {
			if l.Label != "5" {
				plan.Loops[l] = &LoopPlan{}
			}
		}
		if len(plan.Loops) != 6 {
			t.Fatal("boundary loops not found")
		}
		in := NewWithPlan(prog, plan)
		in.Mode = mode
		if err := in.Run(); err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		widths := []int{}
		for _, st := range in.ParallelStats() {
			widths = append(widths, st.Workers)
		}
		if want := []int{2, 3, 4, 4, 4}; !slices.Equal(widths, want) { // loop 20 never dispatches
			t.Fatalf("mode=%v: widths %v, want %v", mode, widths, want)
		}
		// Indices are worker-private, so compare the arrays the loops write.
		for _, name := range []string{"S", "U"} {
			sb, ib := seq.base[seq.Prog.Main().Lookup(name)], in.base[prog.Main().Lookup(name)]
			if i, ok := sameBits(seq.Arena()[sb:sb+8], in.Arena()[ib:ib+8]); !ok {
				t.Errorf("mode=%v: %s(%d) differs from sequential", mode, name, i+1)
			}
		}
		if ref == nil {
			ref = in
			continue
		}
		if in.Ops() != ref.Ops() {
			t.Errorf("mode=%v: ops %d differ from tree %d", mode, in.Ops(), ref.Ops())
		}
		if i, ok := sameBits(ref.Arena(), in.Arena()); !ok {
			t.Errorf("mode=%v: cell %d differs from tree", mode, i)
		}
	}
}

// triSrc is a triangular kernel: iteration i does O(i) work, so the even
// chunks are unbalanced and the last one is the critical path.
const triSrc = `
      PROGRAM main
      REAL a(200), s(200)
      INTEGER i, j
      DO 5 i = 1, 200
        a(i) = MOD(i, 13) + 1
5     CONTINUE
      DO 10 i = 1, 200
        DO 8 j = 1, i
          s(i) = s(i) + a(j)
8       CONTINUE
10    CONTINUE
      END
`

// TestScheduleBalanceTriangular checks that virtual time sees the even
// dispatcher's imbalance on a triangular loop — the critical path is well
// above the balanced share, which is the measurement a case for another
// dispatcher would have to start from — while the result still matches the
// sequential arena exactly.
func TestScheduleBalanceTriangular(t *testing.T) {
	seq := New(minif.MustParse("t", triSrc))
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	n := seq.ArenaSize()
	parProg := minif.MustParse("t", triSrc)
	main := parProg.Main()
	var l10 *ir.DoLoop
	for _, l := range main.Loops() {
		if l.Label == "10" {
			l10 = l
		}
	}
	if l10 == nil {
		t.Fatal("no loop 10")
	}
	plan := &ParallelPlan{
		Workers: 4,
		Loops:   map[*ir.DoLoop]*LoopPlan{l10: {Private: []*ir.Symbol{main.Lookup("J")}}},
	}
	in := NewWithPlan(parProg, plan)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if err := Validate(seq.Arena()[:n], in.Arena()[:n], 0); err != nil {
		t.Errorf("vs sequential: %v", err)
	}
	stats := in.ParallelStats()
	if len(stats) != 1 {
		t.Fatalf("want 1 stat, got %d", len(stats))
	}
	// Chunk [150,200) of a triangle holds 7/16 of the work, not 1/4.
	if st := stats[0]; st.CritOps*10 < st.WorkerOps*4 {
		t.Errorf("crit %d of %d worker ops: the last chunk should carry over 40%%", st.CritOps, st.WorkerOps)
	}
}

// goroutineSrc is a planned loop whose body writes, so a probe behind Out
// samples the goroutine count from inside every position; the bound n
// pushes the last position's final iteration out of a's bounds when set
// past 32.
const goroutineSrc = `
      PROGRAM main
      REAL a(32)
      INTEGER i, n
      n = %d
      DO 10 i = 1, n
        a(i) = i * 0.5
        WRITE(*,*) i
10    CONTINUE
      END
`

// goroutineProbe records the highest goroutine count seen at a WRITE.
type goroutineProbe struct {
	mu  sync.Mutex
	max int
}

func (p *goroutineProbe) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.max = max(p.max, runtime.NumGoroutine())
	p.mu.Unlock()
	return len(b), nil
}

// TestPlannedRunGoroutines pins who runs plan positions: the oracle runs
// every position in the calling goroutine (no reduction here, so the
// staggered merge stays out of the picture), and the VM's position
// goroutines are all gone when Run returns, with or without an error.
func TestPlannedRunGoroutines(t *testing.T) {
	run := func(mode ExecMode, n int) (*goroutineProbe, error) {
		prog := minif.MustParse("t", fmt.Sprintf(goroutineSrc, n))
		plan := &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{prog.Main().Loops()[0]: {}}}
		in := NewWithPlan(prog, plan)
		in.Mode = mode
		probe := &goroutineProbe{}
		in.Out = probe
		return probe, in.Run()
	}
	baseline := runtime.NumGoroutine()
	for _, n := range []int{32, 33} {
		probe, err := run(ModeTree, n)
		if (err != nil) != (n > 32) {
			t.Fatalf("tree n=%d: err = %v", n, err)
		}
		if probe.max != baseline {
			t.Errorf("tree n=%d: %d goroutines inside a position, want the caller's %d", n, probe.max, baseline)
		}
		probe, err = run(ModeAuto, n)
		if (err != nil) != (n > 32) {
			t.Fatalf("vm n=%d: err = %v", n, err)
		}
		if probe.max <= baseline {
			t.Errorf("vm n=%d: probe saw no position goroutine (%d <= %d)", n, probe.max, baseline)
		}
		// wg.Wait returns on the last Done, a hair before that goroutine is
		// off the books; anything still counted after that is a leak.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("vm n=%d: %d goroutines after Run, baseline %d", n, runtime.NumGoroutine(), baseline)
			}
		}
	}
}
