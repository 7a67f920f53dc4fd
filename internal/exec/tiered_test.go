package exec_test

// Loop-transition tests for the VM: a loop invoked many times under the
// profiler, the sampled DDA switching recording off and on between
// iterations, a compiled program invalidated through driver.Incremental,
// the block-boundary budget-check contract, and the cost of a cold compile.
// Every transition must stay bit-identical to the tree-walker.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/minif"
)

// specSrc has one hot inner loop (loop 10: 1-D accesses indexed by the
// loop variable, scalar-only stores otherwise) invoked six times, plus a
// once-invoked reduction loop. It is the shape the VM once gave a second,
// checkless loop body, so the tests below keep pinning it.
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

// TestTierThresholdCrossing runs specSrc under the profiler: every
// observable of the repeatedly invoked inner loop matches the tree-walker
// bit-for-bit, the run took the VM, and its compile fused instructions.
func TestTierThresholdCrossing(t *testing.T) {
	before := exec.ReadCounters()
	diffBoth(t, "threshold", "spc", specSrc, runConfig{profile: true})
	after := exec.ReadCounters()
	if d := after.BytecodeRuns - before.BytecodeRuns; d < 1 {
		t.Fatalf("expected VM runs, counter delta = %d", d)
	}
	if d := after.FusedInstructions - before.FusedInstructions; d < 1 {
		t.Fatalf("expected fused instructions in the compile, counter delta = %d", d)
	}
}

// TestTierStripRearm runs specSrc under iteration-sampled DDA, where
// recording switches off for unsampled iterations and back on for sampled
// ones, and under full DDA. Access counts, carried distances, and
// everything else must equal the tree-walker's in both.
func TestTierStripRearm(t *testing.T) {
	diffBoth(t, "strip", "spc", specSrc,
		runConfig{profile: true, instrument: true, sampleEvery: 3, sampleWarm: 2})
	diffBoth(t, "full", "spc", specSrc, runConfig{profile: true, instrument: true})
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
// of budgets, both engines agree on error presence, exact error text and
// output, the VM never stops before the tree-walker, and it overshoots the
// tree-walker's trigger point by exactly the ops left in the basic block
// (ROADMAP 7(f)). A moved budget check changes a pinned delta. specSrc's
// inner loop is the shape whose budget checks once sat at block entry only;
// its 2500 budget stops a later invocation of that loop, one that second
// body used to run.
func TestBudgetBlockBoundary(t *testing.T) {
	const bdgSrc = `
      PROGRAM bdg
      REAL s
      INTEGER i
      DO 10 i = 1, 100000
        s = s + i * 2.0
10    CONTINUE
      WRITE(*,*) s
      END
`
	for _, tc := range []struct {
		name, src string
		deltas    [][2]int64 // {budget, VM ops - tree ops at the stop}
	}{
		{"bdg", bdgSrc, [][2]int64{{100, 4}, {777, 5}, {1000, 4}, {4999, 1}, {50000, 0}}},
		{"spc", specSrc, [][2]int64{{100, 1}, {777, 0}, {1000, 1}, {2500, 1}, {4999, 3}, {50000, 0}}},
	} {
		for _, bd := range tc.deltas {
			maxOps, want := bd[0], bd[1]
			label := fmt.Sprintf("%s maxops=%d", tc.name, maxOps)
			cfg := runConfig{maxOps: maxOps}
			tree := runEngine(t, tc.name, tc.src, exec.ModeTree, cfg)
			vm := runEngine(t, tc.name, tc.src, exec.ModeAuto, cfg)
			if tree.err != vm.err {
				t.Fatalf("%s: error differs: tree %q vs vm %q", label, tree.err, vm.err)
			}
			if tree.output != vm.output {
				t.Fatalf("%s: output differs: %q vs %q", label, tree.output, vm.output)
			}
			d := vm.ops - tree.ops
			if d < 0 {
				t.Fatalf("%s: the VM stopped %d ops before the tree-walker", label, -d)
			}
			if d != want {
				t.Fatalf("%s: the VM stopped %d ops past the tree-walker, want %d", label, d, want)
			}
		}
	}
}

// TestCompileAllocations bounds a cold compile of tier 5k by its heap
// allocations: on a fresh parse, a run given a budget of one operation
// compiles the plain stream and stops at its first budget check.
// With a second, specialized body per straight-line loop it made 1,394;
// with one body per loop it makes 299. The limit is 1.6 times that,
// so that it fails with the second body back.
func TestCompileAllocations(t *testing.T) {
	tier, ok := corpus.TierByName("5k")
	if !ok {
		t.Fatal("no corpus tier 5k")
	}
	p := tier.Generate()
	prog, err := minif.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatalf("parse tier 5k: %v", err)
	}
	in := exec.New(prog) // lays out the arena; compiles nothing yet
	in.MaxOps = 1
	const limit = 480
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = in.Run()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a budget of one operation was not exceeded")
	}
	if got := after.Mallocs - before.Mallocs; got > limit {
		t.Fatalf("a cold compile of tier 5k made %d allocations, limit %d", got, limit)
	}
}
