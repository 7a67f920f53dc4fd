package exec_test

// The fuzz-shaped version of the differential suite: arbitrary
// (parser-accepted) programs run on the tree-walker and the VM and every
// observable must agree. One body, one seed corpus, and one target per
// compiled variant of the VM: the instrumented stream (profile + DDA, full
// or sampled — sampled runs switch recording off and on between
// iterations) and the plain stream. The target names predate the one-VM
// collapse; they are kept so CI's fuzz history carries over.

import (
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// fuzzDifferential seeds f the same way as FuzzMiniFParser (so CI mutates
// from real program shapes) plus hot 1-D loops with IF arms and
// intrinsics, faults, and deep or repeated loop activations, and checks
// tree-vs-VM agreement under the config cfgFor derives from the input.
func fuzzDifferential(f *testing.F, cfgFor func(src string) runConfig) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add(corpus.DiffProgram(seed))
	}
	f.Add("      PROGRAM T\n      REAL A(10)\n      INTEGER I\n      DO 10 I = 1, 10\n      A(I) = A(I) + 1.0\n   10 CONTINUE\n      END\n")
	f.Add("      PROGRAM T\n      REAL X\n      X = 1.0 / 0.0\n      END\n")
	f.Add("      PROGRAM T\n      REAL A(10)\n      INTEGER I\n      DO 10 I = 1, 10\n      A(I) = ABS(A(I) - 3.0) + 1.0\n   10 CONTINUE\n      END\n")
	f.Add("      PROGRAM T\n      REAL A(10), S\n      INTEGER I\n      DO 10 I = 1, 10\n      IF (A(I) .GT. 2.0) S = S + 1\n   10 CONTINUE\n      END\n")
	// One loop activated twice per iteration of another, and an eight-deep
	// nest through calls: the DDA's activation rule and its deepest stacks.
	f.Add(twoCallsSrc)
	f.Add(nest8Src)

	f.Fuzz(func(t *testing.T, src string) {
		if _, err := minif.Parse("fuzz.f", src); err != nil {
			return
		}
		// Bound runtime: arbitrary accepted programs may loop for a long
		// time. Budget errors are part of the differential contract (error
		// text and output identical; arena relaxed — see compareRuns).
		cfg := cfgFor(src)
		cfg.maxOps = 200000
		diffBoth(t, "fuzz", "fuzz.f", src, cfg)
	})
}

func FuzzTieredDifferential(f *testing.F) {
	fuzzDifferential(f, func(src string) runConfig {
		cfg := runConfig{profile: true, instrument: true}
		if len(src)%2 == 1 {
			cfg.sampleEvery = 3
			cfg.sampleWarm = 1
		}
		return cfg
	})
}

func FuzzRegisterDifferential(f *testing.F) {
	fuzzDifferential(f, func(src string) runConfig {
		return runConfig{profile: len(src)%2 == 1}
	})
}
