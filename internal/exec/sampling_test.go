package exec_test

// Closed-form unit tests for DDA iteration sampling (§2.5.2 optimization 2):
// the warm-up window, the modulo boundary, and the SampleEvery=1 ≡ full
// equivalence — asserted on both engines, which must agree exactly.

import (
	"io"
	"testing"

	"suifx/internal/exec"
	"suifx/internal/minif"
)

// updateLoop performs 4 instrumented accesses per sampled iteration:
// reads of i (index expr) and a(i) on the RHS, the read of i in the LHS
// index, and the write of a(i). accesses = 4 × #sampled.
const updateLoop = `
      PROGRAM smp
      REAL a(32)
      INTEGER i
      DO 10 i = 1, 20
        a(i) = a(i) + 1.0
10    CONTINUE
      END
`

// reduceLoop carries a flow dependence on s between consecutive *sampled*
// iterations: accesses = 4 × #sampled (reads of s, i, a(i); write of s),
// carried = #sampled − 1. The loop-index write itself is not hooked, so i
// never records a last-write and contributes no dependence.
const reduceLoop = `
      PROGRAM red
      REAL a(32), s
      INTEGER i
      DO 10 i = 1, %N%
        s = s + a(i)
10    CONTINUE
      END
`

func runSampled(t *testing.T, src string, mode exec.ExecMode, every, warm int64) *exec.DynDep {
	t.Helper()
	prog, err := minif.Parse("smp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := exec.New(prog)
	in.Mode = mode
	in.Out = io.Discard
	d := exec.NewDynDep(in)
	d.SampleEvery = every
	d.SampleWarm = warm
	if err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d
}

func firstLoopCarried(t *testing.T, src string, mode exec.ExecMode, every, warm int64) (accesses, carried int64) {
	t.Helper()
	prog, err := minif.Parse("smp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := exec.New(prog)
	in.Mode = mode
	in.Out = io.Discard
	d := exec.NewDynDep(in)
	d.SampleEvery = every
	d.SampleWarm = warm
	if err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range prog.Procs {
		for _, l := range p.Loops() {
			carried += d.Carried(l)
		}
	}
	return d.Accesses(), carried
}

func bothModes(t *testing.T, f func(t *testing.T, mode exec.ExecMode)) {
	t.Run("tree", func(t *testing.T) { f(t, exec.ModeTree) })
	t.Run("bytecode", func(t *testing.T) { f(t, exec.ModeAuto) })
}

func TestSamplingWarmupAndBoundary(t *testing.T) {
	bothModes(t, func(t *testing.T, mode exec.ExecMode) {
		// Default warm-up is 2: iterations {0,1} plus every 5th
		// {0,5,10,15} → sampled set {0,1,5,10,15}, 4 accesses each.
		d := runSampled(t, updateLoop, mode, 5, 0)
		if got := d.Accesses(); got != 20 {
			t.Errorf("SampleEvery=5 default warm: accesses = %d, want 20", got)
		}
		// Explicit warm-up of 4: {0,1,2,3} ∪ {0,5,10,15} → 7 sampled.
		d = runSampled(t, updateLoop, mode, 5, 4)
		if got := d.Accesses(); got != 28 {
			t.Errorf("SampleEvery=5 warm=4: accesses = %d, want 28", got)
		}
	})
}

func TestSamplingEveryOneIsFull(t *testing.T) {
	bothModes(t, func(t *testing.T, mode exec.ExecMode) {
		d1 := runSampled(t, updateLoop, mode, 1, 0)
		d0 := runSampled(t, updateLoop, mode, 0, 0)
		if d1.Accesses() != 80 || d0.Accesses() != 80 {
			t.Errorf("SampleEvery<=1 must instrument all 20 iterations: got %d and %d, want 80",
				d1.Accesses(), d0.Accesses())
		}
	})
}

func TestSamplingCarriedAcrossSampledIters(t *testing.T) {
	src20 := replaceN(reduceLoop, "20")
	src25 := replaceN(reduceLoop, "25")
	bothModes(t, func(t *testing.T, mode exec.ExecMode) {
		// warm=4, every=7, N=20 → sampled {0,1,2,3,7,14}: 6 iterations,
		// 24 accesses, 5 carried flow deps on s.
		acc, car := firstLoopCarried(t, src20, mode, 7, 4)
		if acc != 24 || car != 5 {
			t.Errorf("warm=4 every=7: accesses=%d carried=%d, want 24/5", acc, car)
		}
		// default warm=2, every=10, N=25 → sampled {0,1,10,20}: 4
		// iterations, 16 accesses, 3 carried.
		acc, car = firstLoopCarried(t, src25, mode, 10, 0)
		if acc != 16 || car != 3 {
			t.Errorf("warm=2 every=10: accesses=%d carried=%d, want 16/3", acc, car)
		}
		// Full instrumentation for reference: N=20 → 80 accesses, 19 carried.
		acc, car = firstLoopCarried(t, src20, mode, 1, 0)
		if acc != 80 || car != 19 {
			t.Errorf("full: accesses=%d carried=%d, want 80/19", acc, car)
		}
	})
}

func replaceN(src, n string) string {
	out := ""
	for i := 0; i < len(src); i++ {
		if i+3 <= len(src) && src[i:i+3] == "%N%" {
			out += n
			i += 2
			continue
		}
		out += string(src[i])
	}
	return out
}
