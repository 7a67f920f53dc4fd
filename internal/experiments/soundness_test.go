package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"

	"suifx/internal/corpus"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/parallel"
)

// The random program generator lives in internal/corpus
// (PipelineProgram): a small grammar of loop bodies — independent writes,
// covered temporaries, scalar and array reductions, guarded updates, and
// genuine recurrences. Whatever the parallelizer approves must execute
// identically in parallel — the DESIGN.md end-to-end soundness invariant.

// TestQuickPipelineSoundness is the whole-pipeline property test: for random
// programs, every loop the parallelizer approves executes identically under
// the goroutine runtime (FP reductions compared with tolerance), for any
// worker count.
func TestQuickPipelineSoundness(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(workersRaw%7) + 2
		src := corpus.PipelineProgram(r)

		seqProg, err := minif.Parse("rnd", src)
		if err != nil {
			t.Logf("generator produced invalid program: %v\n%s", err, src)
			return false
		}
		seq := exec.New(seqProg)
		if err := seq.Run(); err != nil {
			t.Logf("sequential run failed: %v\n%s", err, src)
			return false
		}

		parProg := minif.MustParse("rnd", src)
		res := parallel.Parallelize(parProg, parallel.Config{UseReductions: true})
		plan := parallel.BuildPlan(res, workers)
		if len(plan.Loops) == 0 {
			return true // nothing approved; trivially sound
		}
		par := exec.NewWithPlan(parProg, plan)
		if err := par.Run(); err != nil {
			t.Logf("parallel run failed: %v\n%s", err, src)
			return false
		}
		n := seq.ArenaSize()
		seqA := append([]float64(nil), seq.Arena()[:n]...)
		parA := append([]float64(nil), par.Arena()[:n]...)
		// Mask privatized (dead after loop) storage, as in
		// ValidateUserParallelization.
		for _, li := range res.Ordered {
			if !li.Chosen {
				continue
			}
			for _, vr := range li.Dep.Vars {
				cls := vr.Class.String()
				if cls == "private" || cls == "index" {
					if lo, hi, ok := par.Cells(vr.Sym); ok {
						for i := lo; i <= hi && i < int64(n); i++ {
							seqA[i], parA[i] = 0, 0
						}
					}
				}
			}
		}
		if err := exec.Validate(seqA, parA, 1e-9); err != nil {
			t.Logf("MISMATCH (%d workers): %v\nprogram:\n%s", workers, err, src)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusScaleSoundness runs the corpus factory's recorded scale tiers
// end to end: whatever the parallelizer approves on a generated program
// must execute identically in parallel at several worker counts — on both
// engines, whose full arenas (worker banks included) and clocks must also
// agree bit for bit, the oracle's on every repeat. The quick tiers run
// everywhere; the 20k-line tier joins outside -short.
func TestCorpusScaleSoundness(t *testing.T) {
	tiers := corpus.QuickLadder()
	if !testing.Short() {
		if tier, ok := corpus.TierByName("20k"); ok {
			tiers = append(tiers, tier)
		}
	}
	for _, tier := range tiers {
		tier := tier
		t.Run(tier.Name, func(t *testing.T) {
			p := tier.Generate()
			prog, err := minif.Parse(p.Name, p.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res := parallel.Parallelize(prog, parallel.Config{UseReductions: true})
			for _, workers := range []int{1, 2, 4, 8} {
				plan := parallel.BuildPlan(res, workers)
				if len(plan.Loops) == 0 {
					t.Fatalf("tier %s: no loops approved for parallel execution", tier.Name)
				}
				for _, mode := range []exec.ExecMode{exec.ModeAuto, exec.ModeTree} {
					if err := ValidatePlanned(res, plan, mode); err != nil {
						t.Errorf("W=%d mode=%v: %v", workers, mode, err)
					}
				}
				vm := exec.NewWithPlan(prog, plan)
				if err := vm.Run(); err != nil {
					t.Fatalf("W=%d vm run: %v", workers, err)
				}
				for run := 0; run < 5; run++ {
					tree := exec.NewWithPlan(prog, plan)
					tree.Mode = exec.ModeTree
					if err := tree.Run(); err != nil {
						t.Fatalf("W=%d tree run %d: %v", workers, run, err)
					}
					if i, ok := bitsEqual(tree.Arena(), vm.Arena()); !ok {
						t.Fatalf("W=%d tree run %d: cell %d differs: tree %g vs vm %g",
							workers, run, i, tree.Arena()[i], vm.Arena()[i])
					}
					if tree.Ops() != vm.Ops() {
						t.Fatalf("W=%d tree run %d: ops differ: tree %d vs vm %d", workers, run, tree.Ops(), vm.Ops())
					}
				}
			}
		})
	}
}

// TestRecurrenceNeverApproved: the generator's recurrence body must never be
// classified parallel.
func TestRecurrenceNeverApproved(t *testing.T) {
	src := `
      PROGRAM rec
      REAL b(128), a(128)
      INTEGER i
      DO 100 i = 2, 128
        b(i) = b(i-1) + a(i)
100   CONTINUE
      END
`
	res := parallel.Parallelize(minif.MustParse("rec", src), parallel.Config{UseReductions: true})
	if res.LoopByID("REC/100").Dep.Parallelizable {
		t.Fatal("recurrence approved — unsound")
	}
}
