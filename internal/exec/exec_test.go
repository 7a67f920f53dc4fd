package exec

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

func run(t *testing.T, src string) (*Interp, string) {
	t.Helper()
	prog, err := minif.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	var buf bytes.Buffer
	in.Out = &buf
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	return in, buf.String()
}

func TestInterpArithmetic(t *testing.T) {
	_, out := run(t, `
      PROGRAM main
      REAL s, a(10)
      INTEGER i
      s = 0.0
      DO 10 i = 1, 10
        a(i) = i * 2
        s = s + a(i)
10    CONTINUE
      WRITE(*,*) s
      END
`)
	if !strings.Contains(out, "110") {
		t.Fatalf("sum = %q, want 110", out)
	}
}

func TestInterpControlFlowAndIntrinsics(t *testing.T) {
	_, out := run(t, `
      PROGRAM main
      REAL x, tmin
      INTEGER i
      tmin = 1E30
      DO 10 i = 1, 5
        x = ABS(3.0 - i) + MOD(i, 2) + MAX(1.0*i, 2.0)
        IF (x .LT. tmin) tmin = x
10    CONTINUE
      WRITE(*,*) tmin
      IF (tmin .GT. 0.5 .AND. tmin .LT. 100.0) THEN
        WRITE(*,*) 1
      ELSE
        WRITE(*,*) 0
      ENDIF
      END
`)
	lines := strings.Fields(out)
	if len(lines) != 2 || lines[1] != "1" {
		t.Fatalf("out = %q", out)
	}
}

func TestInterpCommonAndCall(t *testing.T) {
	_, out := run(t, `
      SUBROUTINE fill(q, n)
      REAL q(100)
      INTEGER j, n
      DO 10 j = 1, n
        q(j) = j
10    CONTINUE
      END
      PROGRAM main
      COMMON /blk/ w(100)
      REAL s
      INTEGER i
      CALL fill(w(11), 5)
      s = 0.0
      DO 20 i = 1, 100
        s = s + w(i)
20    CONTINUE
      WRITE(*,*) s
      END
`)
	// fill writes w(11..15) = 1..5 -> sum 15.
	if !strings.Contains(out, "15") {
		t.Fatalf("subarray call: out = %q, want 15", out)
	}
}

func TestInterpBoundsCheck(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM main
      REAL a(10)
      INTEGER i
      i = 11
      a(i) = 1.0
      END
`)
	in := New(prog)
	if err := in.Run(); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v, want bounds error", err)
	}
}

func TestInterpReversedLoopAndStep(t *testing.T) {
	_, out := run(t, `
      PROGRAM main
      INTEGER i, n
      REAL s
      s = 0.0
      n = 0
      DO 10 i = 9, 1, -2
        s = s + i
        n = n + 1
10    CONTINUE
      WRITE(*,*) s, n
      END
`)
	f := strings.Fields(out)
	if len(f) != 2 || f[0] != "25" || f[1] != "5" {
		t.Fatalf("out = %q, want 25 5", out)
	}
}

func TestProfiler(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM main
      REAL a(100)
      INTEGER i, k
      DO 20 k = 1, 10
        DO 10 i = 1, 100
          a(i) = a(i) + 1.0
10      CONTINUE
20    CONTINUE
      END
`)
	in := New(prog)
	p := NewProfiler(in)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	profs := p.Profiles()
	if len(profs) != 2 {
		t.Fatalf("profiles = %d", len(profs))
	}
	outer, inner := profs[0], profs[1]
	if outer.ID != "MAIN/20" {
		t.Fatalf("outer loop should dominate: %v", outer.ID)
	}
	if inner.Invocations != 10 || inner.Iterations != 1000 {
		t.Fatalf("inner: inv=%d iters=%d", inner.Invocations, inner.Iterations)
	}
	if outer.TotalOps <= inner.TotalOps {
		t.Fatal("outer total must include inner")
	}
	cov := float64(outer.TotalOps) / float64(p.TotalOps())
	if cov < 0.9 {
		t.Fatalf("outer loop coverage = %f, want near 1", cov)
	}
}

func TestDynDepDetectsRecurrence(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM main
      REAL a(100), b(100)
      INTEGER i
      a(1) = 1.0
      DO 10 i = 2, 100
        a(i) = a(i-1) + 1.0
10    CONTINUE
      DO 20 i = 1, 100
        b(i) = a(i) * 2.0
20    CONTINUE
      END
`)
	in := New(prog)
	d := NewDynDep(in)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	loops := prog.Main().Loops()
	if d.Carried(loops[0]) == 0 {
		t.Fatal("recurrence loop must show dynamic carried deps")
	}
	if d.Carried(loops[1]) != 0 {
		t.Fatal("independent loop must show no carried deps")
	}
}

func TestDynDepIgnoresSameIteration(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM main
      REAL a(100), t
      INTEGER i
      DO 10 i = 1, 100
        t = i * 2.0
        a(i) = t + 1.0
10    CONTINUE
      END
`)
	in := New(prog)
	d := NewDynDep(in)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	l := prog.Main().Loops()[0]
	// t is written then read in the same iteration: not loop-carried...
	// but it IS rewritten each iteration; the read always sees the same
	// iteration's write, so no carried flow dep.
	if d.Carried(l) != 0 {
		t.Fatalf("same-iteration flow misreported as carried: %d", d.Carried(l))
	}
}

func TestDynDepSampling(t *testing.T) {
	src := `
      PROGRAM main
      REAL a(200)
      INTEGER i
      a(1) = 1.0
      DO 10 i = 2, 200
        a(i) = a(i-1) + 1.0
10    CONTINUE
      END
`
	prog := minif.MustParse("t", src)
	inFull := New(prog)
	dFull := NewDynDep(inFull)
	if err := inFull.Run(); err != nil {
		t.Fatal(err)
	}
	prog2 := minif.MustParse("t", src)
	inS := New(prog2)
	dS := NewDynDep(inS)
	dS.SampleEvery = 10
	if err := inS.Run(); err != nil {
		t.Fatal(err)
	}
	if dS.Accesses() >= dFull.Accesses() {
		t.Fatalf("sampling should reduce instrumented accesses: %d vs %d", dS.Accesses(), dFull.Accesses())
	}
	// The hint survives sampling: consecutive warm iterations see the dep.
	if dS.Carried(prog2.Main().Loops()[0]) == 0 {
		t.Fatal("sampled analyzer should still catch the recurrence")
	}
}

// TestArenaCap: a program whose declared storage is over MaxArenaCells —
// by its static layout, by dimensions whose product overflows int64, or
// only with per-worker banks on top — gets an interpreter that holds no
// arena and refuses to run, on either engine and under the analyzers.
func TestArenaCap(t *testing.T) {
	const prog = `
      PROGRAM main
      REAL a(%s), b(10)
      INTEGER i
      DO 10 i = 1, 10
        a(i) = i
        b(i) = a(i)
10    CONTINUE
      END
`
	refused := func(label string, in *Interp) {
		t.Helper()
		if in.ArenaSize() != 0 {
			t.Fatalf("%s: %d cells allocated for an over-cap program", label, in.ArenaSize())
		}
		NewProfiler(in)
		NewDynDep(in)
		if err := in.Run(); !errors.Is(err, ErrArenaTooLarge) {
			t.Fatalf("%s: Run = %v, want ErrArenaTooLarge", label, err)
		}
		if err := in.RunProc(in.Prog.Main(), nil); !errors.Is(err, ErrArenaTooLarge) {
			t.Fatalf("%s: RunProc = %v, want ErrArenaTooLarge", label, err)
		}
	}
	for _, dims := range []string{"100000,100000", "3000000000,3000000000,3000000000", "16777216"} {
		for _, mode := range []ExecMode{ModeAuto, ModeTree} {
			in := New(minif.MustParse("t", fmt.Sprintf(prog, dims)))
			in.Mode = mode
			refused(dims, in)
		}
	}

	// 5M cells fit, and with two banks of A on top; with four they do not.
	p := minif.MustParse("t", fmt.Sprintf(prog, "5000000"))
	if err := New(p).Run(); err != nil {
		t.Fatalf("under the cap: %v", err)
	}
	plan := &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{
		p.Main().Loops()[0]: {Private: []*ir.Symbol{p.Main().Lookup("A")}},
	}}
	refused("banks", NewWithPlan(p, plan))
	plan.Workers = 2
	if in := NewWithPlan(p, plan); in.ArenaSize() == 0 {
		t.Fatal("two banks of 5M cells fit under the cap")
	}
}
