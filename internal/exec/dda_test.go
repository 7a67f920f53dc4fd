package exec_test

import (
	"io"
	"testing"

	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// twoCallsSrc activates S/20 twice in every iteration of T/10: the first
// call writes A(1..10), the second reads it back in reverse. Every read
// sees a write of the other activation, never one of an earlier iteration
// of its own, so S/20 carries nothing and "A is independent in S/20" holds.
const twoCallsSrc = `
      PROGRAM T
      COMMON /W/ A(10)
      INTEGER J
      DO 10 J = 1, 3
        CALL S(1)
        CALL S(2)
10    CONTINUE
      END

      SUBROUTINE S(M)
      COMMON /W/ A(10)
      REAL X
      INTEGER I, M
      DO 20 I = 1, 10
        IF (M .EQ. 1) THEN
          A(I) = I
        ELSE
          X = A(11-I)
        ENDIF
20    CONTINUE
      END
`

// loopByID finds a loop by its "PROC/label" id.
func loopByID(t *testing.T, prog *ir.Program, id string) *ir.DoLoop {
	t.Helper()
	for _, p := range prog.Procs {
		for _, l := range p.Loops() {
			if l.ID(p.Name) == id {
				return l
			}
		}
	}
	t.Fatalf("no loop %s", id)
	return nil
}

// TestDDATwoActivations: a write in one activation of a loop and a read in
// a later activation of the same loop, both within one iteration of the
// enclosing loop, are not a dependence carried by either loop.
func TestDDATwoActivations(t *testing.T) {
	for _, mode := range []exec.ExecMode{exec.ModeTree, exec.ModeAuto} {
		prog := minif.MustParse("twocalls", twoCallsSrc)
		in := exec.New(prog)
		in.Mode = mode
		in.Out = io.Discard
		d := exec.NewDynDep(in)
		if err := in.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		lo, hi, ok := in.Cells(prog.ByName["S"].Lookup("A"))
		if !ok {
			t.Fatal("no storage for A in S")
		}
		for _, id := range []string{"S/20", "T/10"} {
			l := loopByID(t, prog, id)
			if n, m := d.Carried(l), d.CarriedInRange(l, lo, hi); n != 0 || m != 0 {
				t.Errorf("%v: %s carried %d dependences, %d on A; want 0", mode, id, n, m)
			}
		}
	}
}

// secondRunSrc reads and then writes A(I) in every iteration of a J/I
// nest: each run, T/10 carries 20 dependences (J = 2 and 3 read what the
// previous J wrote).
const secondRunSrc = `
      PROGRAM T
      REAL A(10)
      INTEGER I, J
      DO 10 J = 1, 3
        DO 20 I = 1, 10
          A(I) = A(I) + 1.0
20      CONTINUE
10    CONTINUE
      END
`

// TestDDASecondRun: running one Interp twice under one DynDep counts each
// run's dependences alone; the first run's writes are older than every
// loop activation of the second, on both engines.
func TestDDASecondRun(t *testing.T) {
	var pins [2]string
	for k, mode := range []exec.ExecMode{exec.ModeTree, exec.ModeAuto} {
		prog := minif.MustParse("tworuns", secondRunSrc)
		in := exec.New(prog)
		in.Mode = mode
		in.Out = io.Discard
		d := exec.NewDynDep(in)
		l := loopByID(t, prog, "T/10")
		for run, want := range []int64{20, 40} {
			if err := in.Run(); err != nil {
				t.Fatalf("%v run %d: %v", mode, run+1, err)
			}
			if got := d.Carried(l); got != want {
				t.Errorf("%v: after run %d T/10 carried %d, want %d", mode, run+1, got, want)
			}
		}
		pins[k] = ddaPins(prog, d)
	}
	if pins[0] != pins[1] {
		t.Errorf("engines disagree after two runs:\n tree:\n%s vm:\n%s", pins[0], pins[1])
	}
}

// TestProfiledRunAllocations bounds a profiled run — a fresh Interp under
// the profiler and full DDA, pooled state warm — by its heap allocations.
// With an 80-byte (loop, iteration) record per shadow cell and per-run
// maps of carried counts, mdg made 90 and hydro 367; with one clock stamp
// per cell and per-cell counts flushed into the analyzer, 63 and 212. The
// limits are 1.2 times that, so that they fail with the per-run maps back.
func TestProfiledRunAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit float64
	}{{"mdg", 76}, {"hydro", 255}} {
		prog := workloads.ByName(tc.name).Fresh()
		run := func() {
			in := exec.New(prog)
			in.Out = io.Discard
			exec.NewProfiler(in)
			exec.NewDynDep(in)
			if err := in.Run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		run() // compile and fill the pools
		if got := testing.AllocsPerRun(10, run); got > tc.limit {
			t.Errorf("a profiled %s run made %.0f allocations, limit %.0f", tc.name, got, tc.limit)
		}
	}
}
