package depend

import (
	"runtime"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/region"
	"suifx/internal/summary"
)

func loopResult(t *testing.T, src, loopID string, opts Options) (*summary.Analysis, *LoopResult) {
	t.Helper()
	prog, err := minif.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	a := summary.Analyze(prog)
	var lr *region.Region
	for _, r := range a.Reg.LoopRegions() {
		if r.ID() == loopID {
			lr = r
		}
	}
	if lr == nil {
		t.Fatalf("no loop %s", loopID)
	}
	return a, AnalyzeLoop(a, lr, opts)
}

func classOf(t *testing.T, res *LoopResult, name string) VarResult {
	t.Helper()
	for _, v := range res.Vars {
		if v.Sym.Name == name {
			return v
		}
	}
	t.Fatalf("no var %s in result", name)
	return VarResult{}
}

func TestIndependentLoop(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100), b(100)
      INTEGER i
      DO 10 i = 1, 100
        a(i) = b(i) * 2.0
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if !res.Parallelizable {
		t.Fatalf("loop should parallelize: blocking=%v", res.Blocking)
	}
	if c := classOf(t, res, "A").Class; c != ClassParallel {
		t.Fatalf("A = %v, want parallel", c)
	}
	if c := classOf(t, res, "B").Class; c != ClassReadOnly {
		t.Fatalf("B = %v, want read-only", c)
	}
}

func TestFlowDependence(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100)
      INTEGER i
      DO 10 i = 2, 100
        a(i) = a(i-1) + 1.0
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if res.Parallelizable {
		t.Fatal("recurrence must not parallelize")
	}
	if c := classOf(t, res, "A").Class; c != ClassDep {
		t.Fatalf("A = %v, want dependence", c)
	}
}

func TestAntiDependenceBlocks(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100)
      INTEGER i
      DO 10 i = 1, 99
        a(i) = a(i+1) + 1.0
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if res.Parallelizable {
		t.Fatal("anti-dependence must not parallelize statically")
	}
}

func TestScalarPrivatization(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100), t
      INTEGER i
      DO 10 i = 1, 100
        t = a(i) * 2.0
        a(i) = t + 1.0
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if !res.Parallelizable {
		t.Fatalf("loop with privatizable scalar should parallelize: %v", res.Blocking)
	}
	v := classOf(t, res, "T")
	if v.Class != ClassPrivate || !v.NeedsFinalization {
		t.Fatalf("T = %+v, want private w/ finalization", v)
	}
}

func TestArrayPrivatizationIdenticalRegion(t *testing.T) {
	// Every iteration writes tmp(1:5) before reading it: private.
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100), tmp(5)
      INTEGER i, j
      DO 10 i = 1, 100
        DO 5 j = 1, 5
          tmp(j) = a(i) + j
5       CONTINUE
        a(i) = tmp(1) + tmp(5)
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if !res.Parallelizable {
		t.Fatalf("loop should parallelize via privatization: %v", res.Blocking)
	}
	v := classOf(t, res, "TMP")
	if v.Class != ClassPrivate {
		t.Fatalf("TMP = %+v, want private", v)
	}
}

func TestLoopVariantPrivateNeedsLiveness(t *testing.T) {
	// Fig 5-1: each iteration writes a different range of aif3; without
	// liveness it cannot be privatized, with the oracle it can.
	src := `
      SUBROUTINE init(q, n)
      REAL q(100)
      INTEGER j, n
      DO 10 j = 1, n
        q(j) = 0.0
10    CONTINUE
      END
      PROGRAM main
      REAL aif3(100), s(100)
      INTEGER l, k, k1, k2, klo(10), khi(10)
      DO 85 l = 2, 9
        k1 = klo(l)
        k2 = khi(l)
        CALL init(aif3(k1), k2-k1+1)
        DO 60 k = k1, k2
          s(l) = s(l) + aif3(k)
60      CONTINUE
85    CONTINUE
      END
`
	_, res := loopResult(t, src, "MAIN/85", Options{})
	if res.Parallelizable {
		t.Fatal("without liveness the loop must stay sequential")
	}
	if c := classOf(t, res, "AIF3").Class; c != ClassDep {
		t.Fatalf("AIF3 = %v, want dependence without liveness", c)
	}
	_, res2 := loopResult(t, src, "MAIN/85", Options{
		DeadAtExit: func(*region.Region, *ir.Symbol) bool { return true },
	})
	if !res2.Parallelizable {
		t.Fatalf("with the liveness oracle the loop should parallelize: %v", res2.Blocking)
	}
	if c := classOf(t, res2, "AIF3").Class; c != ClassPrivate {
		t.Fatalf("AIF3 = %v, want private with liveness", c)
	}
}

func TestScalarReduction(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100), s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 100
        s = s + a(i)
10    CONTINUE
      END
`, "MAIN/10", Options{UseReductions: true})
	if !res.Parallelizable || !res.NeedsReduction {
		t.Fatalf("sum should parallelize via reduction: %v", res.Blocking)
	}
	v := classOf(t, res, "S")
	if v.Class != ClassReduction || v.RedOp != summary.RedAdd {
		t.Fatalf("S = %+v", v)
	}
	// Without reduction recognition the same loop is sequential.
	_, res2 := loopResult(t, `
      PROGRAM main
      REAL a(100), s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 100
        s = s + a(i)
10    CONTINUE
      END
`, "MAIN/10", Options{UseReductions: false})
	if res2.Parallelizable {
		t.Fatal("without reduction recognition the sum loop must be sequential")
	}
}

func TestArrayRegionReduction(t *testing.T) {
	// §6.1.2: B(J) accumulated across the outer loop.
	_, res := loopResult(t, `
      PROGRAM main
      REAL b(3), a(100,3)
      INTEGER i, j
      DO 10 i = 1, 100
        DO 5 j = 1, 3
          b(j) = b(j) + a(i,j)
5       CONTINUE
10    CONTINUE
      END
`, "MAIN/10", Options{UseReductions: true})
	if !res.Parallelizable || !res.NeedsReduction {
		t.Fatalf("array reduction loop should parallelize: %v", res.Blocking)
	}
	v := classOf(t, res, "B")
	if v.Class != ClassReduction {
		t.Fatalf("B = %+v", v)
	}
}

func TestSparseReduction(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL hist(50)
      INTEGER ind(100), i
      DO 10 i = 1, 100
        hist(ind(i)) = hist(ind(i)) + 1.0
10    CONTINUE
      END
`, "MAIN/10", Options{UseReductions: true})
	if !res.Parallelizable {
		t.Fatalf("sparse reduction should parallelize: %v", res.Blocking)
	}
	v := classOf(t, res, "HIST")
	if v.Class != ClassReduction || v.RedOp != summary.RedAdd {
		t.Fatalf("HIST = %+v", v)
	}
}

func TestReductionBlockedByPlainRead(t *testing.T) {
	// Reading the accumulator elsewhere in the loop defeats the reduction.
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100), s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 100
        s = s + a(i)
        a(i) = s
10    CONTINUE
      END
`, "MAIN/10", Options{UseReductions: true})
	if res.Parallelizable {
		t.Fatal("partial-sums loop must not parallelize as a reduction")
	}
}

func TestMinReduction(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100), tmin
      INTEGER i
      tmin = 1E30
      DO 10 i = 1, 100
        IF (a(i) .LT. tmin) tmin = a(i)
10    CONTINUE
      END
`, "MAIN/10", Options{UseReductions: true})
	if !res.Parallelizable {
		t.Fatalf("MIN loop should parallelize: %v", res.Blocking)
	}
	v := classOf(t, res, "TMIN")
	if v.Class != ClassReduction || v.RedOp != summary.RedMin {
		t.Fatalf("TMIN = %+v", v)
	}
}

func TestIOBlocksParallelization(t *testing.T) {
	_, res := loopResult(t, `
      PROGRAM main
      REAL a(100)
      INTEGER i
      DO 10 i = 1, 100
        a(i) = 1.0
        WRITE(*,*) a(i)
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if res.Parallelizable || !res.HasIO {
		t.Fatal("loop with I/O must not parallelize")
	}
}

func TestUserAssertionPrivate(t *testing.T) {
	src := `
      PROGRAM main
      REAL xps(100), y(101), xp(200)
      INTEGER s, h, kc
      DO 2365 s = 1, 99
        kc = s - (s/2)*2
        IF (kc .EQ. 0) THEN
          DO 2350 h = 1, 50
            xps(h) = y(h+1)
2350      CONTINUE
        ENDIF
        DO 2360 h = 1, 50
          xp(s+h) = xps(h)
2360    CONTINUE
2365  CONTINUE
      END
`
	_, res := loopResult(t, src, "MAIN/2365", Options{})
	if res.Parallelizable {
		t.Fatal("conditionally-written xps must block")
	}
	if c := classOf(t, res, "XPS").Class; c != ClassDep {
		t.Fatalf("XPS = %v, want dependence", c)
	}
	_, res2 := loopResult(t, src, "MAIN/2365", Options{
		AssertPrivate: map[string]bool{"XPS": true},
	})
	v := classOf(t, res2, "XPS")
	if v.Class != ClassPrivate || !v.ByAssertion {
		t.Fatalf("asserted XPS = %+v", v)
	}
}

func TestCommonAliasDifferentShapes(t *testing.T) {
	_, res := loopResult(t, `
      SUBROUTINE wr
      COMMON /blk/ v1(0:10)
      INTEGER i
      DO 5 i = 0, 10
        v1(i) = 1.0
5     CONTINUE
      END
      PROGRAM main
      COMMON /blk/ v(11)
      REAL s
      INTEGER i
      DO 10 i = 1, 11
        CALL wr
        s = v(i)
10    CONTINUE
      END
`, "MAIN/10", Options{})
	if res.Parallelizable {
		t.Fatal("aliased common layouts must block parallelization")
	}
}

// TestAnalyzeLoopAllocations bounds the dependence test over every loop of
// the 5k tier by an exact count — a property of the algorithm, not of the
// machine. With lin.Expr a map per expression the sweep made 333,606
// allocations, as a sorted term vector 88,050, and about 79,000 with section
// operations that hand back an unchanged operand; with Fourier–Motzkin in
// pooled scratch storage it makes about 41,100 (limit under 1.5 times that).
func TestAnalyzeLoopAllocations(t *testing.T) {
	tier, _ := corpus.TierByName("5k")
	p := tier.Generate()
	prog, err := minif.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	a := summary.Analyze(prog)
	loops := a.Reg.LoopRegions()
	const limit = 61_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range loops {
		AnalyzeLoop(a, r, Options{UseReductions: true})
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > limit {
		t.Fatalf("AnalyzeLoop over the %d loops of tier 5k made %d allocations, limit %d", len(loops), got, limit)
	}
}
