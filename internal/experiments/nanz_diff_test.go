package experiments

import (
	"testing"

	"suifx/internal/exec"
	"suifx/internal/workloads"
)

// TestNanzParallelCoverage pins the differential guarantees for the six
// Nanz et al. tasks explicitly (the generic suites cover them too, via
// workloads.All, but this test keeps the guarantee from silently eroding
// if a task's plan stops approving loops): every task must have a chosen
// parallel loop, the tree and bytecode engines must produce bit-identical
// arenas at W ∈ {1, 2, 4}, and each parallel run must validate against a
// sequential run.
func TestNanzParallelCoverage(t *testing.T) {
	par := map[string]bool{}
	for _, n := range parallelWorkloads(t) {
		par[n] = true
	}
	suite := workloads.Suite("nanz")
	if len(suite) != 6 {
		t.Fatalf("nanz suite has %d workloads, want 6", len(suite))
	}
	for _, w := range suite {
		if !par[w.Name] {
			t.Errorf("%s: no approved parallel loop — excluded from the differential suites", w.Name)
			continue
		}
		for _, workers := range []int{1, 2, 4} {
			tree, _, err := runParallel(w.Name, parallelRunOptions{
				Workers: workers, Mode: exec.ModeTree, Staggered: true, Chunks: 4,
			})
			if err != nil {
				t.Fatalf("%s W=%d tree: %v", w.Name, workers, err)
			}
			vmRun, _, err := runParallel(w.Name, parallelRunOptions{
				Workers: workers, Staggered: true, Chunks: 4,
			})
			if err != nil {
				t.Fatalf("%s W=%d vm: %v", w.Name, workers, err)
			}
			if i, ok := bitsEqual(tree.Arena(), vmRun.Arena()); !ok {
				t.Errorf("%s W=%d: arenas differ from tree at cell %d", w.Name, workers, i)
			}
			for _, mode := range []exec.ExecMode{exec.ModeTree, exec.ModeAuto} {
				if err := validateParallelRun(w.Name, workers, mode, true); err != nil {
					t.Errorf("%s W=%d mode=%v: %v", w.Name, workers, mode, err)
				}
			}
		}
	}
}
