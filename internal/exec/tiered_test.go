package exec_test

// Tier-transition tests for the VM's profile-guided specialization: a loop crossing the invocation threshold mid-run, the
// sampled DDA re-arming instrumentation after a stripped iteration, a
// specialized program invalidated through driver.Incremental, and the
// block-boundary budget-check contract. Every transition must stay
// bit-identical to the tree-walker.

import (
	"bytes"
	"fmt"
	"testing"

	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/minif"
)

// specSrc has one specializable loop (loop 10: 1-D accesses indexed by the
// loop variable, scalar-only stores otherwise) invoked six times — past the
// specialization threshold — plus a once-invoked loop that never qualifies
// for arming by count.
const specSrc = `
      PROGRAM spc
      REAL a(100), s
      INTEGER i, j
      DO 20 j = 1, 6
        DO 10 i = 1, 100
          a(i) = a(i) + j * 0.5
10      CONTINUE
20    CONTINUE
      s = 0.0
      DO 30 i = 1, 100
        s = s + a(i)
30    CONTINUE
      WRITE(*,*) s
      END
`

// TestTierThresholdCrossing runs a program whose inner loop crosses the
// specialization threshold mid-run and checks the specialized invocations
// actually happened (counter delta) while every observable matches the
// tree-walker bit-for-bit.
func TestTierThresholdCrossing(t *testing.T) {
	before := exec.ReadCounters()
	diffBoth(t, "threshold", "spc", specSrc, runConfig{profile: true})
	after := exec.ReadCounters()
	if d := after.SpecInvocations - before.SpecInvocations; d < 1 {
		t.Fatalf("expected specialized invocations after threshold crossing, counter delta = %d", d)
	}
	if d := after.BytecodeRuns - before.BytecodeRuns; d < 1 {
		t.Fatalf("expected VM runs, counter delta = %d", d)
	}
	if d := after.FusedInstructions - before.FusedInstructions; d < 1 {
		t.Fatalf("expected fused instructions in the compile, counter delta = %d", d)
	}
}

// TestTierStripRearm runs the same program under iteration-sampled DDA:
// unsampled iterations of the armed loop execute the stripped specialized
// body, sampled iterations re-arm instrumentation and run the generic
// instrumented body. Access counts, carried distances, and everything else
// must equal the tree-walker's.
func TestTierStripRearm(t *testing.T) {
	before := exec.ReadCounters()
	diffBoth(t, "strip", "spc", specSrc,
		runConfig{profile: true, instrument: true, sampleEvery: 3, sampleWarm: 2})
	after := exec.ReadCounters()
	if d := after.StripIterations - before.StripIterations; d < 1 {
		t.Fatalf("expected stripped iterations under sampled DDA, counter delta = %d", d)
	}

	// Fully-sampled DDA must never strip: every iteration is observed.
	before = exec.ReadCounters()
	diffBoth(t, "full", "spc", specSrc, runConfig{profile: true, instrument: true})
	after = exec.ReadCounters()
	if d := after.StripIterations - before.StripIterations; d != 0 {
		t.Fatalf("fully-sampled DDA stripped %d iterations; want 0", d)
	}
}

// TestTierIncrementalInvalidation checks who owns the compiled-code cache:
// compiled code is a function of the ir.Program alone, so driver.Incremental
// invalidation (which dirties summaries) leaves it warm, and only
// exec.InvalidateProgram forces a rebuild — with identical results across it.
func TestTierIncrementalInvalidation(t *testing.T) {
	prog, err := minif.Parse("spc", specSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	run := func() (string, int64) {
		in := exec.New(prog)
		var out bytes.Buffer
		in.Out = &out
		if err := in.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String(), in.Ops()
	}

	out1, ops1 := run()
	// Warm cache: a second run must not recompile.
	before := exec.ReadCounters()
	out2, ops2 := run()
	if d := exec.ReadCounters().CompiledPrograms - before.CompiledPrograms; d != 0 {
		t.Fatalf("warm run recompiled %d programs; want 0", d)
	}

	// Invalidating a procedure through the incremental driver, and
	// re-analyzing, must not touch the exec cache.
	inc := driver.NewIncremental(prog, driver.Options{})
	inc.Analyze()
	if n := inc.Invalidate(prog.Procs[0].Name); n < 1 {
		t.Fatalf("Invalidate dirtied %d procs; want >= 1", n)
	}
	inc.Analyze()
	before = exec.ReadCounters()
	run()
	if d := exec.ReadCounters().CompiledPrograms - before.CompiledPrograms; d != 0 {
		t.Fatalf("run after a driver invalidation recompiled %d programs; want 0", d)
	}

	exec.InvalidateProgram(prog)
	before = exec.ReadCounters()
	out3, ops3 := run()
	if d := exec.ReadCounters().CompiledPrograms - before.CompiledPrograms; d < 1 {
		t.Fatalf("run after InvalidateProgram recompiled %d programs; want >= 1", d)
	}
	if out1 != out2 || out2 != out3 {
		t.Fatalf("output changed across invalidation: %q / %q / %q", out1, out2, out3)
	}
	if ops1 != ops2 || ops2 != ops3 {
		t.Fatalf("ops changed across invalidation: %d / %d / %d", ops1, ops2, ops3)
	}
}

// TestBudgetBlockBoundary pins the budget-check hoist contract: for a sweep
// of budgets, both engines agree on error presence and exact error text,
// and the VM stops within one basic block of the tree-walker's trigger
// point (bounded op-count overshoot).
func TestBudgetBlockBoundary(t *testing.T) {
	const src = `
      PROGRAM bdg
      REAL s
      INTEGER i
      DO 10 i = 1, 100000
        s = s + i * 2.0
10    CONTINUE
      WRITE(*,*) s
      END
`
	// One iteration of the loop is a handful of instructions; 64 ops is a
	// generous bound on a single basic block here.
	const blockBound = 64
	for _, maxOps := range []int64{100, 777, 1000, 4999, 50000} {
		label := fmt.Sprintf("maxops=%d", maxOps)
		cfg := runConfig{maxOps: maxOps}
		tree := runEngine(t, "bdg", src, exec.ModeTree, cfg)
		vm := runEngine(t, "bdg", src, exec.ModeAuto, cfg)
		if (tree.err == "") != (vm.err == "") {
			t.Fatalf("%s: error presence differs: tree %q vs vm %q", label, tree.err, vm.err)
		}
		if tree.err != vm.err {
			t.Fatalf("%s: error text differs: tree %q vs vm %q", label, tree.err, vm.err)
		}
		if tree.output != vm.output {
			t.Fatalf("%s: output differs: %q vs %q", label, tree.output, vm.output)
		}
		if d := vm.ops - tree.ops; d < -blockBound || d > blockBound {
			t.Fatalf("%s: budget trigger drifted %d ops past the tree-walker (bound %d)",
				label, d, blockBound)
		}
	}
}
