package exec

import (
	"math"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

// TestSchedulePartition proves every dispatcher policy is a partition: over
// all positions, each iteration of [0, trips) is executed exactly once, in
// increasing order per position, and lastPosition names the position that
// actually receives the globally last iteration — the §5.4 storage-binding
// contract every schedule must honor.
func TestSchedulePartition(t *testing.T) {
	cases := []struct {
		trips   int64
		workers int
	}{
		{0, 4}, {1, 1}, {1, 4}, {2, 4}, {3, 2}, {7, 3}, {8, 8}, {10, 4},
		{100, 7}, {1000, 8}, {37, 5}, {64, 8},
	}
	for _, sched := range Schedules() {
		for _, c := range cases {
			seen := make([]int, c.trips)
			lastSeenPos := -1
			for pos := 0; pos < c.workers; pos++ {
				prev := int64(-1)
				err := forEachAssigned(sched, c.trips, c.workers, pos, func(it int64) error {
					if it < 0 || it >= c.trips {
						t.Fatalf("%v trips=%d W=%d pos=%d: iteration %d out of range",
							sched, c.trips, c.workers, pos, it)
					}
					if it <= prev {
						t.Fatalf("%v trips=%d W=%d pos=%d: iteration %d after %d (not increasing)",
							sched, c.trips, c.workers, pos, it, prev)
					}
					prev = it
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
					t.Fatalf("%v trips=%d W=%d: iteration %d executed %d times",
						sched, c.trips, c.workers, it, n)
				}
			}
			if c.trips > 0 {
				if got := lastPosition(sched, c.trips, c.workers); got != lastSeenPos {
					t.Fatalf("%v trips=%d W=%d: lastPosition = %d but position %d ran the last iteration",
						sched, c.trips, c.workers, got, lastSeenPos)
				}
			}
		}
	}
}

// TestParseScheduleRoundTrip pins name parsing and String round-trips.
func TestParseScheduleRoundTrip(t *testing.T) {
	for _, s := range Schedules() {
		got, err := ParseSchedule(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSchedule(%q) = %v, %v", s.String(), got, err)
		}
	}
	if s, err := ParseSchedule(""); err != nil || s != ScheduleEven {
		t.Errorf("empty name should parse as even, got %v, %v", s, err)
	}
	if _, err := ParseSchedule("random"); err == nil {
		t.Error("unknown schedule name must error")
	}
}

// TestGuidedChunks pins the guided chunk formula: chunks never drop below
// one iteration and never grow as the remaining space shrinks.
func TestGuidedChunks(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		remaining, prev := int64(1000), int64(1 << 62)
		for remaining > 0 {
			c := guidedNext(remaining, workers)
			if c < 1 || c > remaining && remaining >= 1 && c != 1 {
				t.Fatalf("W=%d remaining=%d: chunk %d", workers, remaining, c)
			}
			if c > prev {
				t.Fatalf("W=%d: chunk grew %d -> %d", workers, prev, c)
			}
			prev = c
			if c > remaining {
				c = remaining
			}
			remaining -= c
		}
	}
}

// runPlannedSched executes redSrc under its reduction plan with the given
// schedule and returns the finished interpreter.
func runPlannedSched(t *testing.T, mode ExecMode, workers int, staggered bool, sched Schedule) *Interp {
	t.Helper()
	prog := minif.MustParse("t", redSrc)
	plan := planFor(t, prog, workers, staggered)
	for _, lp := range plan.Loops {
		lp.Schedule = sched
	}
	in := NewWithPlan(prog, plan)
	in.Mode = mode
	if err := in.Run(); err != nil {
		t.Fatalf("mode=%v workers=%d sched=%v: %v", mode, workers, sched, err)
	}
	return in
}

// TestScheduleDispatchAgreement is the satellite regression pinning
// schedule↔dispatch agreement: the plan's schedule is what the dispatcher
// actually runs (surfaced through ParLoopStat.Schedule), both engines
// execute the same assignment bit-for-bit, and the §5.4 storage rule holds
// under every policy — the planned run's live arena matches sequential.
func TestScheduleDispatchAgreement(t *testing.T) {
	seq := New(minif.MustParse("t", redSrc))
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	n := seq.ArenaSize()
	for _, sched := range Schedules() {
		for _, workers := range []int{2, 4, 8} {
			tree := runPlannedSched(t, ModeTree, workers, true, sched)
			vm := runPlannedSched(t, ModeAuto, workers, true, sched)
			for _, in := range []*Interp{tree, vm} {
				stats := in.ParallelStats()
				if len(stats) != 1 {
					t.Fatalf("sched=%v: want 1 stat, got %d", sched, len(stats))
				}
				if stats[0].Schedule != sched.String() {
					t.Fatalf("sched=%v W=%d: dispatcher reported schedule %q — plan and dispatch disagree",
						sched, workers, stats[0].Schedule)
				}
			}
			if tree.Ops() != vm.Ops() {
				t.Errorf("sched=%v W=%d: ops differ: tree %d vs vm %d", sched, workers, tree.Ops(), vm.Ops())
			}
			ta, va := tree.Arena(), vm.Arena()
			for i := range ta {
				if math.Float64bits(ta[i]) != math.Float64bits(va[i]) {
					t.Errorf("sched=%v W=%d: cell %d differs between engines: %g vs %g",
						sched, workers, i, ta[i], va[i])
					break
				}
			}
			if err := Validate(seq.Arena()[:n], vm.Arena()[:n], 1e-9); err != nil {
				t.Errorf("sched=%v W=%d vs sequential: %v", sched, workers, err)
			}
		}
	}
}

// TestScheduleReductionDeterminism extends the PR 5 bit-identity regression
// to the full (schedule × discipline) matrix at W∈{1,2,4}: 20 repeated runs
// of the reduction kernel must produce bit-identical arenas for every
// combination on both engines, since worker contributions merge in fixed
// index order whatever the assignment policy.
func TestScheduleReductionDeterminism(t *testing.T) {
	for _, mode := range []ExecMode{ModeTree, ModeAuto} {
		for _, sched := range Schedules() {
			for _, staggered := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					var first []uint64
					for run := 0; run < 20; run++ {
						in := runPlannedSched(t, mode, workers, staggered, sched)
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
								t.Fatalf("mode=%v sched=%v staggered=%v W=%d run %d: cell %d differs: %x vs %x",
									mode, sched, staggered, workers, run, i, bits[i], first[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestScheduleBoundaryAssignments pins the exact per-position assignment at
// the dispatch boundaries: fewer trips than workers (some positions get
// nothing — even leaves interior holes, interleaved/guided leave a tail),
// zero trips (nobody runs), and guided chunks collapsed to single
// iterations (remaining/(2W) < 1 from the first chunk).
func TestScheduleBoundaryAssignments(t *testing.T) {
	cases := []struct {
		sched   Schedule
		trips   int64
		workers int
		want    [][]int64
	}{
		{ScheduleEven, 2, 4, [][]int64{{}, {0}, {}, {1}}},
		{ScheduleEven, 1, 4, [][]int64{{}, {}, {}, {0}}},
		{ScheduleInterleaved, 2, 4, [][]int64{{0}, {1}, {}, {}}},
		{ScheduleGuided, 2, 4, [][]int64{{0}, {1}, {}, {}}},
		{ScheduleEven, 0, 4, [][]int64{{}, {}, {}, {}}},
		{ScheduleInterleaved, 0, 4, [][]int64{{}, {}, {}, {}}},
		{ScheduleGuided, 0, 4, [][]int64{{}, {}, {}, {}}},
		// 7/(2*2) = 1: every guided chunk is a single iteration, dealt
		// round-robin — cyclic assignment, not contiguous halves.
		{ScheduleGuided, 7, 2, [][]int64{{0, 2, 4, 6}, {1, 3, 5}}},
	}
	for _, c := range cases {
		for pos := 0; pos < c.workers; pos++ {
			got := []int64{}
			err := forEachAssigned(c.sched, c.trips, c.workers, pos, func(it int64) error {
				got = append(got, it)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := c.want[pos]
			if len(got) != len(want) {
				t.Fatalf("%v trips=%d W=%d pos=%d: got %v, want %v",
					c.sched, c.trips, c.workers, pos, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v trips=%d W=%d pos=%d: got %v, want %v",
						c.sched, c.trips, c.workers, pos, got, want)
				}
			}
		}
	}
}

// boundarySrc runs two planned loops at the dispatch boundaries: loop 10
// has fewer trips (2) than the plan's workers (4), loop 20 has zero trips.
const boundarySrc = `
      PROGRAM main
      REAL a(8), s(8)
      INTEGER i, n, m
      n = 2
      m = 0
      DO 5 i = 1, 8
        a(i) = i * 2.0
        s(i) = 0.0
5     CONTINUE
      DO 10 i = 1, n
        s(i) = a(i) + 1.0
10    CONTINUE
      DO 20 i = 1, m
        s(i) = 99.0
20    CONTINUE
      WRITE(*,*) s(1), s(2), s(3)
      END
`

// TestScheduleBoundaryTierAgreement runs the boundary loops under every
// schedule across all four engine tiers and requires bit-identical results:
// a partial or empty assignment must not desynchronize any tier's dispatch.
func TestScheduleBoundaryTierAgreement(t *testing.T) {
	for _, sched := range Schedules() {
		var ref *Interp
		for _, mode := range []ExecMode{ModeTree, ModeAuto} {
			prog := minif.MustParse("t", boundarySrc)
			main := prog.Main()
			plan := &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{}}
			for _, l := range main.Loops() {
				if l.Label == "10" || l.Label == "20" {
					plan.Loops[l] = &LoopPlan{Schedule: sched}
				}
			}
			if len(plan.Loops) != 2 {
				t.Fatal("boundary loops not found")
			}
			in := NewWithPlan(prog, plan)
			in.Mode = mode
			if err := in.Run(); err != nil {
				t.Fatalf("sched=%v mode=%v: %v", sched, mode, err)
			}
			if ref == nil {
				ref = in
				continue
			}
			if in.Ops() != ref.Ops() {
				t.Errorf("sched=%v mode=%v: ops %d differ from tree %d", sched, mode, in.Ops(), ref.Ops())
			}
			ra, ia := ref.Arena(), in.Arena()
			for i := range ra {
				if math.Float64bits(ra[i]) != math.Float64bits(ia[i]) {
					t.Errorf("sched=%v mode=%v: cell %d differs: %g vs %g", sched, mode, i, ia[i], ra[i])
					break
				}
			}
		}
	}
}

// triSrc is a triangular kernel: iteration i does O(i) work, so the even
// schedule's last chunk dominates the critical path while interleaving
// balances it — the measurable difference the tuner's schedule knob exists
// to exploit.
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

// TestScheduleBalanceTriangular checks the schedules differ where they
// should: on a triangular loop the interleaved critical path is strictly
// shorter than the even one, and every schedule still matches the
// sequential arena.
func TestScheduleBalanceTriangular(t *testing.T) {
	seq := New(minif.MustParse("t", triSrc))
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	n := seq.ArenaSize()
	crit := map[Schedule]int64{}
	for _, sched := range Schedules() {
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
			Loops: map[*ir.DoLoop]*LoopPlan{
				l10: {Private: []*ir.Symbol{main.Lookup("J")}, Schedule: sched},
			},
		}
		in := NewWithPlan(parProg, plan)
		if err := in.Run(); err != nil {
			t.Fatalf("sched=%v: %v", sched, err)
		}
		if err := Validate(seq.Arena()[:n], in.Arena()[:n], 0); err != nil {
			t.Errorf("sched=%v vs sequential: %v", sched, err)
		}
		stats := in.ParallelStats()
		if len(stats) != 1 {
			t.Fatalf("sched=%v: want 1 stat, got %d", sched, len(stats))
		}
		crit[sched] = stats[0].CritOps
	}
	if crit[ScheduleInterleaved] >= crit[ScheduleEven] {
		t.Errorf("interleaved crit %d should beat even crit %d on a triangular loop",
			crit[ScheduleInterleaved], crit[ScheduleEven])
	}
	if crit[ScheduleGuided] >= crit[ScheduleEven] {
		t.Errorf("guided crit %d should beat even crit %d on a triangular loop",
			crit[ScheduleGuided], crit[ScheduleEven])
	}
}
