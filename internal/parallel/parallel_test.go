package parallel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suifx/internal/exec"
	"suifx/internal/minif"
)

const nestedSrc = `
      SUBROUTINE inner(a, n)
      REAL a(100)
      INTEGER i, n
      DO 10 i = 1, n
        a(i) = a(i) * 2.0
10    CONTINUE
      END
      PROGRAM main
      REAL a(100), b(100), s
      INTEGER i, j, n
      n = 100
      DO 100 i = 1, n
        DO 50 j = 1, n
          b(j) = a(j) + i
50      CONTINUE
        CALL inner(b, n)
        a(i) = b(i)
100   CONTINUE
      s = 0.0
      DO 200 i = 1, n
        s = s + a(i)
200   CONTINUE
      END
`

func TestChooseOutermost(t *testing.T) {
	prog := minif.MustParse("t", nestedSrc)
	res := Parallelize(prog, Config{UseReductions: true})
	outer := res.LoopByID("MAIN/100")
	if outer == nil {
		t.Fatal("no MAIN/100")
	}
	// a(i) = b(i) reads a(j) for all j in the body: loop-carried on A.
	if outer.Dep.Parallelizable {
		t.Fatal("MAIN/100 has a genuine dependence on a")
	}
	inner50 := res.LoopByID("MAIN/50")
	if !inner50.Dep.Parallelizable || !inner50.Chosen {
		t.Fatalf("MAIN/50 should be chosen: %+v", inner50.Dep.Blocking)
	}
	// INNER/10 is reached through a call from the sequential MAIN/100 but
	// not from inside a chosen loop: it is chosen itself.
	in10 := res.LoopByID("INNER/10")
	if !in10.Chosen {
		t.Fatal("INNER/10 should be chosen")
	}
	red := res.LoopByID("MAIN/200")
	if !red.Chosen || !red.Dep.NeedsReduction {
		t.Fatal("MAIN/200 should be a chosen reduction loop")
	}
}

func TestUnderParallelSuppression(t *testing.T) {
	src := `
      SUBROUTINE work(a, base)
      REAL a(1000)
      INTEGER j, base
      DO 10 j = 1, 10
        a(base + j) = j * 1.0
10    CONTINUE
      END
      PROGRAM main
      REAL a(1000)
      INTEGER i
      DO 100 i = 1, 99
        CALL work(a, i * 10)
100   CONTINUE
      END
`
	prog := minif.MustParse("t", src)
	res := Parallelize(prog, Config{})
	outer := res.LoopByID("MAIN/100")
	if !outer.Chosen {
		t.Fatalf("MAIN/100 should be chosen: %v", outer.Dep.Blocking)
	}
	in10 := res.LoopByID("WORK/10")
	if in10.Chosen {
		t.Fatal("WORK/10 runs inside a parallel loop: must not be chosen")
	}
	if !in10.UnderParallel {
		t.Fatal("WORK/10 should be marked under-parallel")
	}
	if len(res.SequentialLoops()) != 0 {
		t.Fatalf("no worklist candidates expected: %v", res.SequentialLoops())
	}
}

func TestStatsAndVarCounts(t *testing.T) {
	prog := minif.MustParse("t", nestedSrc)
	res := Parallelize(prog, Config{UseReductions: true})
	st := res.Stats()
	if st.TotalLoops != 4 || st.ParallelizableN != 3 || st.SequentialN != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WithReductionN != 1 {
		t.Fatalf("reduction loops = %d", st.WithReductionN)
	}
	counts := VarCounts(res.ParallelLoops())
	if counts["reduction scalar"] != 1 {
		t.Fatalf("var counts = %v", counts)
	}
}

func TestAssertionsPlumbing(t *testing.T) {
	prog := minif.MustParse("t", nestedSrc)
	res := Parallelize(prog, Config{
		UseReductions: true,
		Assertions: map[string]AssertSet{
			"MAIN/100": {Independent: map[string]bool{"A": true}, Private: map[string]bool{"B": true}},
		},
	})
	outer := res.LoopByID("MAIN/100")
	if !outer.Dep.Parallelizable || !outer.Chosen {
		t.Fatalf("asserted loop should be chosen: %v", outer.Dep.Blocking)
	}
	// Everything dynamically inside is now under-parallel.
	if !res.LoopByID("INNER/10").UnderParallel {
		t.Fatal("INNER/10 should be under the asserted parallel loop")
	}
}

// TestEarlyExitPlanOutput runs the early-exit fixture (MAIN/10 stops the
// program in its twentieth iteration) sequentially and under the W=2 and
// W=4 plans: a plan that ran MAIN/10 in parallel would run every iteration
// and then print X(80), which the sequential program never reaches.
func TestEarlyExitPlanOutput(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "viz", "testdata", "fixtures", "early-exit.f"))
	if err != nil {
		t.Fatal(err)
	}
	prog := minif.MustParse("early-exit", string(src))
	res := Parallelize(prog, Config{UseReductions: true})
	if dep := res.LoopByID("MAIN/10").Dep; dep.Parallelizable || dep.ExitLine != 12 {
		t.Fatalf("MAIN/10 parallelizable=%v with exit line %d, want blocked by the STOP at line 12", dep.Parallelizable, dep.ExitLine)
	}
	run := func(in *exec.Interp) string {
		var out strings.Builder
		in.Out = &out
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := run(exec.New(prog))
	for _, w := range []int{2, 4} {
		if got := run(exec.NewWithPlan(prog, BuildPlan(res, w))); got != want {
			t.Errorf("W=%d plan printed %q, the sequential run %q", w, got, want)
		}
	}
}
