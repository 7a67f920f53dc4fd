package summary

import (
	"testing"

	"suifx/internal/ir"
	"suifx/internal/lin"
	"suifx/internal/minif"
	"suifx/internal/region"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	prog, err := minif.Parse("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(prog)
}

func loopRegion(t *testing.T, a *Analysis, id string) *region.Region {
	t.Helper()
	for _, r := range a.Reg.LoopRegions() {
		if r.ID() == id {
			return r
		}
	}
	t.Fatalf("no loop region %s", id)
	return nil
}

func findSym(t *testing.T, a *Analysis, proc, name string) *ir.Symbol {
	t.Helper()
	s := a.Prog.Proc(proc).Lookup(name)
	if s == nil {
		t.Fatalf("no symbol %s in %s", name, proc)
	}
	return a.Canon(s)
}

func TestSimpleLoopWriteSummary(t *testing.T) {
	a := analyze(t, `
      PROGRAM main
      REAL a(100)
      INTEGER i, n
      n = 100
      DO 10 i = 1, n
        a(i) = 0.0
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	sum := a.RegionSum[lr]
	acc := sum.Lookup(findSym(t, a, "MAIN", "A"))
	if acc == nil {
		t.Fatal("no access for A")
	}
	// Must-write covers elements 1..100 (n propagated as constant).
	for _, i := range []int64{1, 50, 100} {
		if !acc.M.ContainsIndex([]int64{i}, nil) {
			t.Fatalf("M %v should contain %d", acc.M, i)
		}
	}
	if acc.M.ContainsIndex([]int64{101}, nil) || acc.M.ContainsIndex([]int64{0}, nil) {
		t.Fatalf("M %v too wide", acc.M)
	}
	if !acc.E.IsEmpty() {
		t.Fatalf("E should be empty, got %v", acc.E)
	}
}

func TestExposedReadWithinIteration(t *testing.T) {
	// Write a(i) then read a(i): read is covered, not exposed.
	a := analyze(t, `
      PROGRAM main
      REAL a(100), s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 100
        a(i) = 1.0
        s = s + a(i)
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	acc := a.BodySum[lr.Body()].Lookup(findSym(t, a, "MAIN", "A"))
	if !acc.E.IsEmpty() {
		t.Fatalf("body E should be empty (read after write), got %v", acc.E)
	}
}

func TestRecurrenceExposedReadRefinement(t *testing.T) {
	// The flo88 psmoo pattern (Fig 5-4): d(i-1) read, d(i) written, d(1)
	// written before the loop nest. §5.2.2.3 should prove no exposed reads.
	a := analyze(t, `
      PROGRAM main
      REAL d(100), t(100)
      INTEGER i, il
      il = 99
      d(1) = 0.0
      DO 30 i = 2, il
        t(i) = d(i-1) * 2.0
        d(i) = t(i)
30    CONTINUE
      END
`)
	top := a.Reg.ProcTop["MAIN"]
	sum := a.RegionSum[top]
	acc := sum.Lookup(findSym(t, a, "MAIN", "D"))
	if !acc.E.IsEmpty() {
		t.Fatalf("whole-proc E for d should be empty, got %v", acc.E)
	}
	// At the loop level alone, d(1) IS exposed (written before the loop).
	lr := loopRegion(t, a, "MAIN/30")
	lacc := a.RegionSum[lr].Lookup(findSym(t, a, "MAIN", "D"))
	if !lacc.E.ContainsIndex([]int64{1}, map[string]int64{"IL": 99}) {
		t.Fatalf("loop E for d should contain element 1, got %v", lacc.E)
	}
	if lacc.E.ContainsIndex([]int64{50}, map[string]int64{"IL": 99}) {
		t.Fatalf("loop E for d should exclude interior elements, got %v", lacc.E)
	}
}

func TestScalarReductionMarking(t *testing.T) {
	a := analyze(t, `
      PROGRAM main
      REAL a(100), s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 100
        s = s + a(i)
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	acc := a.BodySum[lr.Body()].Lookup(findSym(t, a, "MAIN", "S"))
	if acc == nil || acc.Red[RedAdd] == nil || acc.Red[RedAdd].IsEmpty() {
		t.Fatalf("s should be marked as + reduction: %+v", acc)
	}
	if !acc.Plain.IsEmpty() {
		t.Fatalf("s has no plain accesses in the loop, got %v", acc.Plain)
	}
}

func TestSparseReductionIndirect(t *testing.T) {
	// HISTOGRAM(A(I)) = HISTOGRAM(A(I)) + 1 (§6.1.3).
	a := analyze(t, `
      PROGRAM main
      REAL hist(50)
      INTEGER ind(100), i
      DO 10 i = 1, 100
        hist(ind(i)) = hist(ind(i)) + 1.0
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	acc := a.BodySum[lr.Body()].Lookup(findSym(t, a, "MAIN", "HIST"))
	if acc.Red[RedAdd] == nil || acc.Red[RedAdd].IsEmpty() {
		t.Fatal("indirect histogram update should be a + reduction")
	}
	if acc.Red[RedAdd].Exact {
		t.Fatal("indirect reduction region must be inexact")
	}
	if !acc.Plain.IsEmpty() {
		t.Fatalf("hist Plain should be empty, got %v", acc.Plain)
	}
	if !acc.M.IsEmpty() {
		t.Fatalf("indirect write cannot be must-write, got %v", acc.M)
	}
}

func TestMinMaxIfPattern(t *testing.T) {
	a := analyze(t, `
      PROGRAM main
      REAL a(100), tmin, tmax
      INTEGER i
      tmin = 1E30
      tmax = -1E30
      DO 10 i = 1, 100
        IF (a(i) .LT. tmin) tmin = a(i)
        IF (tmax .LT. a(i)) tmax = a(i)
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	body := a.BodySum[lr.Body()]
	mn := body.Lookup(findSym(t, a, "MAIN", "TMIN"))
	if mn == nil || mn.Red[RedMin] == nil || mn.Red[RedMin].IsEmpty() {
		t.Fatal("tmin should be a MIN reduction")
	}
	mx := body.Lookup(findSym(t, a, "MAIN", "TMAX"))
	if mx == nil || mx.Red[RedMax] == nil || mx.Red[RedMax].IsEmpty() {
		t.Fatal("tmax should be a MAX reduction")
	}
}

func TestConditionalWriteIsMayWrite(t *testing.T) {
	a := analyze(t, `
      PROGRAM main
      REAL a(100)
      INTEGER i, k
      k = 5
      DO 10 i = 1, 100
        IF (i .NE. k) THEN
          a(i) = 0.0
        ENDIF
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	acc := a.BodySum[lr.Body()].Lookup(findSym(t, a, "MAIN", "A"))
	if !acc.M.IsEmpty() {
		t.Fatalf("conditional write must not be must-write, got %v", acc.M)
	}
	if acc.W.IsEmpty() {
		t.Fatal("conditional write should appear as may-write")
	}
}

func TestCallMappingSubarrayOffset(t *testing.T) {
	// Fig 5-1's init call: the callee's must-write of q(1:n) maps to
	// aif3(k1:k2) in the caller.
	a := analyze(t, `
      SUBROUTINE init(q, n)
      REAL q(100)
      INTEGER j, n
      DO 10 j = 1, n
        q(j) = 0.0
10    CONTINUE
      END
      PROGRAM main
      REAL aif3(100)
      INTEGER k1, k2
      k1 = 11
      k2 = 20
      CALL init(aif3(k1), k2-k1+1)
      END
`)
	top := a.Reg.ProcTop["MAIN"]
	acc := a.RegionSum[top].Lookup(findSym(t, a, "MAIN", "AIF3"))
	if acc == nil {
		t.Fatal("no access mapped for AIF3")
	}
	for _, i := range []int64{11, 15, 20} {
		if !acc.M.ContainsIndex([]int64{i}, nil) {
			t.Fatalf("M %v should contain %d", acc.M, i)
		}
	}
	if acc.M.ContainsIndex([]int64{10}, nil) || acc.M.ContainsIndex([]int64{21}, nil) {
		t.Fatalf("M %v too wide", acc.M)
	}
}

func TestCallMappingCommonBlock(t *testing.T) {
	a := analyze(t, `
      SUBROUTINE f
      COMMON /blk/ x(50)
      INTEGER i
      DO 10 i = 1, 50
        x(i) = 1.0
10    CONTINUE
      END
      PROGRAM main
      COMMON /blk/ x(50)
      REAL s
      CALL f
      s = x(25)
      END
`)
	top := a.Reg.ProcTop["MAIN"]
	acc := a.RegionSum[top].Lookup(findSym(t, a, "MAIN", "X"))
	if acc == nil {
		t.Fatal("common array access not mapped")
	}
	if !acc.M.ContainsIndex([]int64{25}, nil) {
		t.Fatalf("M = %v, want covers 25", acc.M)
	}
	// The read of x(25) after the call is covered, not upwards exposed.
	if !acc.E.IsEmpty() {
		t.Fatalf("E should be empty after covered read, got %v", acc.E)
	}
}

func TestInterproceduralReductionMapping(t *testing.T) {
	// A reduction performed inside a callee (§6.2.2.4).
	a := analyze(t, `
      SUBROUTINE addto(s, v)
      REAL s, v
      s = s + v
      END
      PROGRAM main
      REAL total, a(100)
      INTEGER i
      total = 0.0
      DO 10 i = 1, 100
        CALL addto(total, a(i))
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	acc := a.BodySum[lr.Body()].Lookup(findSym(t, a, "MAIN", "TOTAL"))
	if acc == nil || acc.Red[RedAdd] == nil || acc.Red[RedAdd].IsEmpty() {
		t.Fatalf("interprocedural + reduction on TOTAL not found: %+v", acc)
	}
	if !acc.Plain.IsEmpty() {
		t.Fatalf("TOTAL Plain should be empty, got %v", acc.Plain)
	}
}

func TestAfterRecords(t *testing.T) {
	a := analyze(t, `
      SUBROUTINE f(x)
      REAL x(10)
      x(1) = 1.0
      END
      PROGRAM main
      REAL a(10), b(10)
      INTEGER i
      CALL f(a)
      DO 10 i = 1, 10
        b(i) = 2.0
10    CONTINUE
      a(2) = b(3)
      END
`)
	top := a.Reg.ProcTop["MAIN"]
	recs := a.After[top]
	if len(recs) != 2 {
		t.Fatalf("After records = %d, want 2 (call + loop)", len(recs))
	}
	// The summary after the CALL includes the loop's write of b and the
	// final read of b(3).
	for s, tup := range recs {
		if _, ok := s.(*ir.Call); ok {
			bacc := tup.Lookup(findSym(t, a, "MAIN", "B"))
			if bacc == nil || bacc.M.IsEmpty() {
				t.Fatalf("after-call summary missing b writes: %v", tup)
			}
		}
	}
}

func TestVariantMustWriteDemotion(t *testing.T) {
	// k is loop-variant and non-affine (read from an array): writes a(k)
	// cannot remain must-writes at loop level.
	a := analyze(t, `
      PROGRAM main
      REAL a(100)
      INTEGER ind(100), i, k
      DO 10 i = 1, 100
        k = ind(i)
        a(k) = 1.0
10    CONTINUE
      END
`)
	lr := loopRegion(t, a, "MAIN/10")
	acc := a.RegionSum[lr].Lookup(findSym(t, a, "MAIN", "A"))
	if !acc.M.IsEmpty() {
		t.Fatalf("loop-level M should be empty for variant writes, got %v", acc.M)
	}
	if acc.W.IsEmpty() {
		t.Fatal("loop-level W should cover the variant writes")
	}
	// Inside the body, the write is a must-write of one (unknown) element.
	bacc := a.BodySum[lr.Body()].Lookup(findSym(t, a, "MAIN", "A"))
	if bacc.M.IsEmpty() {
		t.Fatal("body-level must-write should be retained")
	}
}

func TestComposeAndMeetAlgebra(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM main
      REAL a(10)
      a(1) = 0.0
      END
`)
	sym := prog.Main().Lookup("A")
	mk := func(lo, hi int64, must bool) *Tuple {
		t := NewTuple()
		acc := t.Get(sym)
		sec := lin.NewSection(1, lin.NewSystem().AddRange(lin.DimVar(0), lin.NewExpr(lo), lin.NewExpr(hi)))
		if must {
			acc.M = sec
		} else {
			acc.W = sec
		}
		return t
	}
	// Compose: must-writes accumulate.
	c := Compose(mk(1, 5, true), mk(6, 9, true))
	acc := c.Lookup(sym)
	if !acc.M.ContainsIndex([]int64{3}, nil) || !acc.M.ContainsIndex([]int64{7}, nil) {
		t.Fatalf("composed M = %v", acc.M)
	}
	// Meet: must only where both write.
	m := Meet(mk(1, 5, true), mk(3, 9, true))
	macc := m.Lookup(sym)
	if !macc.M.ContainsIndex([]int64{4}, nil) {
		t.Fatalf("meet M = %v should contain 4", macc.M)
	}
	if macc.M.ContainsIndex([]int64{1}, nil) || macc.M.ContainsIndex([]int64{9}, nil) {
		t.Fatalf("meet M = %v too wide", macc.M)
	}
	// Elements written on one side only become may-writes.
	if !macc.W.ContainsIndex([]int64{1}, nil) || !macc.W.ContainsIndex([]int64{9}, nil) {
		t.Fatalf("meet W = %v should cover one-sided writes", macc.W)
	}
}

func TestExposedReadSubtractionInCompose(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM main
      REAL a(10)
      a(1) = 0.0
      END
`)
	sym := prog.Main().Lookup("A")
	write := NewTuple()
	wacc := write.Get(sym)
	wacc.M = lin.NewSection(1, lin.NewSystem().AddRange(lin.DimVar(0), lin.NewExpr(1), lin.NewExpr(5)))
	read := NewTuple()
	racc := read.Get(sym)
	racc.R = lin.NewSection(1, lin.NewSystem().AddRange(lin.DimVar(0), lin.NewExpr(1), lin.NewExpr(9)))
	racc.E = racc.R

	c := Compose(write, read)
	acc := c.Lookup(sym)
	if acc.E.ContainsIndex([]int64{3}, nil) {
		t.Fatalf("E = %v: reads of 1..5 are covered", acc.E)
	}
	if !acc.E.ContainsIndex([]int64{7}, nil) {
		t.Fatalf("E = %v: reads of 6..9 remain exposed", acc.E)
	}
}
