package liveness_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/summary"
)

// TestScaleFixture pins the liveness results on the minimized corpus-shaped
// fixture (internal/minif/testdata/scale_liveness.f). The fixture distills
// the program shape that exposed two pathological slowdowns at corpus scale
// — a whole-program call-site scan per procedure and deep constraint-system
// cloning on section unions — and this test guarantees the fixes kept the
// analysis results bit-identical: the full and 1-bit variants find the dead
// array, the flow-insensitive variant conservatively does not.
func TestScaleFixture(t *testing.T) {
	src, err := os.ReadFile("../minif/testdata/scale_liveness.f")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minif.Parse("scale_liveness.f", string(src))
	if err != nil {
		t.Fatal(err)
	}
	sum := summary.Analyze(prog)
	want := map[liveness.Variant][3]int{
		liveness.Full:            {10, 14, 1},
		liveness.OneBit:          {10, 14, 1},
		liveness.FlowInsensitive: {10, 14, 0},
	}
	for v, w := range want {
		in := liveness.Analyze(sum, v)
		l, m, d := in.DeadStats()
		if [3]int{l, m, d} != w {
			t.Errorf("%s: loops/modified/dead = %d/%d/%d, want %d/%d/%d", v, l, m, d, w[0], w[1], w[2])
		}
	}
}

// mallocsOf counts the heap allocations of one call. The count is a
// property of the algorithm, not of the machine, so a bound on it catches
// regressions a wall-clock deadline generous enough for CI never would.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// chainProgram is a call chain of n small procedures over four shared
// common blocks.
func chainProgram(t *testing.T, n int) *summary.Analysis {
	t.Helper()
	var b strings.Builder
	for p := 0; p < n; p++ {
		fmt.Fprintf(&b, "      SUBROUTINE CH%d(U)\n", p)
		b.WriteString("      REAL U\n      REAL LA(16)\n      INTEGER I\n")
		fmt.Fprintf(&b, "      COMMON /GC%d/ GS%d(16), GT%d\n", p%4, p%4, p%4)
		b.WriteString("      DO 10 I = 1, 16\n")
		fmt.Fprintf(&b, "        LA(I) = MOD(I * %d, 17) * 0.25 + U\n", 3+p%7)
		b.WriteString("10    CONTINUE\n      DO 20 I = 1, 12\n")
		fmt.Fprintf(&b, "        GS%d(I) = LA(I) * 0.5 + 1.5\n", p%4)
		fmt.Fprintf(&b, "        GT%d = GT%d + LA(I) * 0.125\n", p%4, p%4)
		b.WriteString("20    CONTINUE\n")
		if p+1 < n {
			fmt.Fprintf(&b, "      CALL CH%d(U * 0.5)\n", p+1)
		}
		b.WriteString("      END\n\n")
	}
	b.WriteString("      PROGRAM CHAIN\n")
	for c := 0; c < 4; c++ {
		fmt.Fprintf(&b, "      COMMON /GC%d/ GS%d(16), GT%d\n", c, c, c)
	}
	b.WriteString("      CALL CH0(1.5)\n")
	b.WriteString("      WRITE(*,*) GT0, GT1, GT2, GT3\n      END\n")
	prog, err := minif.Parse("chain.f", b.String())
	if err != nil {
		t.Fatal(err)
	}
	return summary.Analyze(prog)
}

// TestManyProcsLiveness guards against reintroducing the per-procedure
// whole-program call-site scan: over a long call chain of small procedures
// the top-down phase must do work linear in the chain length, so the
// allocations per procedure must not grow with the chain.
func TestManyProcsLiveness(t *testing.T) {
	short, long := 50, 400
	if testing.Short() {
		short, long = 15, 60
	}
	perProc := func(n int) float64 {
		sum := chainProgram(t, n)
		var in *liveness.Info
		mallocs := mallocsOf(func() { in = liveness.Analyze(sum, liveness.Full) })
		if len(in.ExitSum) == 0 {
			t.Fatal("no exit summaries computed")
		}
		return float64(mallocs) / float64(n)
	}
	if a, b := perProc(short), perProc(long); b > 1.5*a {
		t.Fatalf("liveness allocates %.0f objects per procedure on a %d-proc chain but %.0f on a %d-proc chain; the top-down phase should be linear in chain length", a, short, b, long)
	}
}

// TestFullPassAllocations bounds the Full pass on the 5k tier by an exact
// count: the pass that dragged the seven-component tuple through every
// region made 1,248,332 allocations here, the exposed-reads-only pass made
// 104,736 while lin.Expr was a map per expression, 36,378 once it was a
// sorted term vector, and makes about 31,900 now that section operations hand
// back an unchanged operand (the few that vary are map growth; limit 1.6
// times that).
func TestFullPassAllocations(t *testing.T) {
	tier, _ := corpus.TierByName("5k")
	sum := summary.Analyze(tierProgram(t, tier))
	const limit = 51_000
	if got := mallocsOf(func() { liveness.Analyze(sum, liveness.Full) }); got > limit {
		t.Fatalf("liveness.Analyze(Full) on tier 5k made %d allocations, limit %d", got, limit)
	}
}
