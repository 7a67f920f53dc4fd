// FuzzTuneConfig drives the tuner's knob space with hostile inputs: invalid
// and duplicate worker counts, out-of-range depths, zero and negative run
// budgets, and degenerate trip counts (zero-trip, negative-step and
// non-terminating loops bounded by the op budget) — over both a templated
// reduction kernel and corpus-seeded differential programs. The contract
// under fuzz: Search either rejects the input with an error and no report,
// or returns a report that satisfies the property-suite invariants and is
// byte-deterministic. It must never panic or hang.
package tune_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/tune"
)

// fuzzKernel is the templated program: a scalar-reduction loop whose bounds
// come straight from the fuzzer, so trip counts can be empty, huge, or
// infinite (caught by the op budget).
const fuzzKernel = `
      PROGRAM fz
      REAL a(64), s
      INTEGER i
      DO 5 i = 1, 64
        a(i) = i * 0.5
5     CONTINUE
      DO 10 i = %d, %d, %d
        s = s + 2.5
10    CONTINUE
      END
`

func FuzzTuneConfig(f *testing.F) {
	// Seed corpus: a healthy search, each invalid-knob class, and the
	// degenerate trip shapes.
	f.Add(int64(1), false, 1, 2, 4, 1, 0, 4, 1, 64, 1)   // valid, full space
	f.Add(int64(2), false, 0, 2, 4, 0, 0, 4, 1, 64, 1)   // worker count 0
	f.Add(int64(3), false, 2, 2, 4, 0, 0, 4, 1, 64, 1)   // duplicate workers
	f.Add(int64(4), false, 1, 2, 200, 0, 0, 4, 1, 64, 1) // worker beyond cap
	f.Add(int64(5), false, 1, 2, 4, 99, 0, 4, 1, 64, 1)  // absurd depth
	f.Add(int64(6), false, 1, 2, 4, 1, -7, 4, 1, 64, 1)  // negative budget
	f.Add(int64(7), false, 1, 2, 4, 1, 1, 4, 1, 64, 1)   // one-run budget
	f.Add(int64(8), false, 1, 2, 4, 0, 0, 0, 1, 64, 1)   // zeroed defaults
	f.Add(int64(9), false, 1, 2, 4, 0, 0, 4, 64, 1, 1)   // zero-trip loop
	f.Add(int64(10), false, 1, 2, 4, 0, 0, 4, 64, 1, -1) // negative step
	f.Add(int64(11), false, 1, 2, 4, 0, 0, 4, 1, 64, 0)  // step 0: op budget stops it
	f.Add(int64(12), true, 1, 2, 4, 1, 0, 4, 1, 64, 1)   // corpus differential program
	f.Add(int64(99), true, 1, 4, 8, 0, 3, 2, 1, 64, 1)   // corpus, budgeted

	f.Fuzz(func(t *testing.T, seed int64, useCorpus bool,
		w1, w2, w3, depth, runs, defW, lo, hi, step int) {
		var src string
		if useCorpus {
			src = corpus.DiffProgram(seed)
		} else {
			src = fmt.Sprintf(fuzzKernel, lo%1024, hi%1024, step%7)
		}
		prog, err := minif.Parse("fz", src)
		if err != nil {
			t.Skip() // bounds the grammar rejects (only the templated kernel)
		}
		res := parallel.Parallelize(prog, parallel.Config{UseReductions: true})
		cfg := tune.Config{
			Workers:        []int{w1, w2, w3},
			MaxDepth:       depth,
			MaxRuns:        runs,
			DefaultWorkers: defW,
			// Hard ceiling so non-terminating fuzz loops stop in bounded
			// virtual time instead of hanging the fuzzer.
			MaxOps: 2_000_000,
		}
		rep, err := tune.Search(context.Background(), res, cfg)
		if err != nil {
			if rep != nil {
				t.Fatalf("error %v with a non-nil report", err)
			}
			return // rejected knobs or op-budget stop: the graceful paths
		}
		space := enumeratedSpace(cfg)
		for _, lr := range rep.Loops {
			if lr.Speedup < 1 {
				t.Errorf("%s: speedup %.4f < 1", lr.ID, lr.Speedup)
			}
			if lr.Chosen.Cycles > lr.Default.Cycles {
				t.Errorf("%s: chosen cycles %.0f > default %.0f", lr.ID, lr.Chosen.Cycles, lr.Default.Cycles)
			}
			if got := len(lr.Searched) + lr.Pruned; got != space {
				t.Errorf("%s: audit trail covers %d variants, enumerated space is %d", lr.ID, got, space)
			}
		}
		if rep.Speedup < 1 {
			t.Errorf("program speedup %.4f < 1", rep.Speedup)
		}
		if cfg.MaxRuns > 0 && rep.Runs > cfg.MaxRuns {
			t.Errorf("runs %d exceed budget %d", rep.Runs, cfg.MaxRuns)
		}
		// Determinism: a second search over the same inputs is byte-identical.
		rep2, err := tune.Search(context.Background(), res, cfg)
		if err != nil {
			t.Fatalf("repeat search failed: %v", err)
		}
		a, _ := json.Marshal(rep)
		b, _ := json.Marshal(rep2)
		if string(a) != string(b) {
			t.Errorf("repeated searches differ:\n%s\n--\n%s", a, b)
		}
	})
}
