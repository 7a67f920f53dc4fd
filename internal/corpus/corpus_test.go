package corpus_test

import (
	"testing"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/summary"
)

// TestSameSeedDeterminism: the factory's core contract — (seed, config)
// regenerate the program bit-for-bit, and the manifest proves it.
func TestSameSeedDeterminism(t *testing.T) {
	cfg := corpus.Config{TargetLines: 800, AliasDensity: 0.3, ReductionMix: 0.4}
	a := corpus.Generate(42, cfg)
	b := corpus.Generate(42, cfg)
	if a.Source != b.Source {
		t.Fatal("same (seed, config) generated different sources")
	}
	if a.Manifest.SHA256 != b.Manifest.SHA256 {
		t.Fatal("same source, different manifest hashes")
	}
	if c := corpus.Generate(43, cfg); c.Source == a.Source {
		t.Fatal("different seeds generated identical sources")
	}

	rep, err := a.Manifest.Reproduce()
	if err != nil {
		t.Fatalf("Reproduce: %v", err)
	}
	if rep.Source != a.Source {
		t.Fatal("Reproduce returned different source")
	}
	bad := a.Manifest
	bad.SHA256 = "0000000000000000000000000000000000000000000000000000000000000000"
	if _, err := bad.Reproduce(); err == nil {
		t.Fatal("Reproduce accepted a corrupted manifest hash")
	}
}

// TestLadderManifestsReproduce: every recorded ladder tier regenerates from
// its manifest alone — the property BENCH_scale.json rows depend on.
func TestLadderManifestsReproduce(t *testing.T) {
	tiers := corpus.FullLadder()
	if testing.Short() {
		tiers = corpus.QuickLadder()
	}
	for _, tier := range tiers {
		p := tier.Generate()
		if _, err := p.Manifest.Reproduce(); err != nil {
			t.Errorf("tier %s: %v", tier.Name, err)
		}
		if got, ok := corpus.TierByName(tier.Name); !ok || got.Seed != tier.Seed {
			t.Errorf("TierByName(%s) lookup failed", tier.Name)
		}
	}
}

// TestKnobMonotonicityGenerator: the splittable-hash design makes knob
// monotonicity exact, not statistical. Raising a probability knob flips
// individual decisions on without reshaping the program: the structural
// stats (procs, loops) are invariant and the knob-counted stats are
// non-decreasing along the knob ladder.
func TestKnobMonotonicityGenerator(t *testing.T) {
	base := corpus.Config{TargetLines: 1500}
	densities := []float64{0, 0.25, 0.5, 0.75, 1}

	var prevAliased = -1
	shape := [2]int{-1, -1}
	for _, d := range densities {
		cfg := base
		cfg.AliasDensity = d
		st := corpus.Generate(7, cfg).Manifest.Stats
		if st.AliasedLoops < prevAliased {
			t.Errorf("alias density %v: aliased loops %d dropped below %d", d, st.AliasedLoops, prevAliased)
		}
		prevAliased = st.AliasedLoops
		if shape[0] == -1 {
			shape = [2]int{st.Procs, st.Loops}
		} else if shape != [2]int{st.Procs, st.Loops} {
			t.Errorf("alias density %v reshaped the program: procs/loops %d/%d, want %d/%d",
				d, st.Procs, st.Loops, shape[0], shape[1])
		}
	}
	if prevAliased == 0 {
		t.Fatal("density 1.0 produced no aliased loops")
	}

	prevRed := -1
	for _, m := range densities {
		cfg := base
		cfg.ReductionMix = m
		st := corpus.Generate(7, cfg).Manifest.Stats
		if st.ReductionStmts < prevRed {
			t.Errorf("reduction mix %v: reduction stmts %d dropped below %d", m, st.ReductionStmts, prevRed)
		}
		prevRed = st.ReductionStmts
	}
	if prevRed == 0 {
		t.Fatal("mix 1.0 produced no reduction statements")
	}
}

// TestKnobMonotonicityAnalyzer: the aliasing knob is visible downstream —
// a denser corpus program makes the parallelizer report at least as many
// conflicted (non-parallelizable) loops, because the aliased-loop set at a
// lower density is a subset of the set at a higher one.
func TestKnobMonotonicityAnalyzer(t *testing.T) {
	blockedAt := func(d float64) int {
		cfg := corpus.Config{TargetLines: 900, AliasDensity: d, ReductionMix: 0.3}
		p := corpus.Generate(11, cfg)
		prog, err := minif.Parse(p.Name, p.Source)
		if err != nil {
			t.Fatalf("density %v: parse: %v", d, err)
		}
		res := parallel.Parallelize(prog, parallel.Config{UseReductions: true})
		blocked := 0
		for _, li := range res.Ordered {
			if !li.Dep.Parallelizable {
				blocked++
			}
		}
		return blocked
	}
	prev := -1
	for _, d := range []float64{0, 0.5, 1} {
		b := blockedAt(d)
		if b < prev {
			t.Errorf("alias density %v: blocked loops %d dropped below %d", d, b, prev)
		}
		prev = b
	}
	if low, high := blockedAt(0), blockedAt(1); high <= low {
		t.Errorf("aliasing knob invisible to the parallelizer: blocked %d at density 0 vs %d at 1", low, high)
	}
}

// TestSizeLadder runs the recorded scale tiers through the full pipeline:
// parse, whole-program analysis, parallelization, bytecode execution. In
// -short mode only the quick tiers run; otherwise the 1k→50k ladder runs
// under a wall-clock guard that the pathological slowdowns this corpus
// originally exposed (quadratic call-site scans, deep section cloning)
// would blow through.
func TestSizeLadder(t *testing.T) {
	tiers := corpus.SizeLadder()
	if testing.Short() {
		tiers = corpus.QuickLadder()
	}
	start := time.Now()
	minLines, maxLines := 1<<31, 0
	for _, tier := range tiers {
		p := tier.Generate()
		lines := p.Manifest.Stats.Lines
		if lines < tier.Cfg.TargetLines*6/10 || lines > tier.Cfg.TargetLines*14/10 {
			t.Errorf("tier %s: %d lines, far from target %d", tier.Name, lines, tier.Cfg.TargetLines)
		}
		if lines < minLines {
			minLines = lines
		}
		if lines > maxLines {
			maxLines = lines
		}
		prog, err := minif.Parse(p.Name, p.Source)
		if err != nil {
			t.Fatalf("tier %s: parse: %v", tier.Name, err)
		}
		sum := summary.Analyze(prog)
		res := parallel.ParallelizeWith(sum, parallel.Config{UseReductions: true})
		chosen := 0
		for _, li := range res.Ordered {
			if li.Chosen {
				chosen++
			}
		}
		if chosen == 0 {
			t.Errorf("tier %s: no parallel loops chosen", tier.Name)
		}
		in := exec.New(prog)
		if err := in.Run(); err != nil {
			t.Fatalf("tier %s: exec: %v", tier.Name, err)
		}
		if in.Ops() == 0 {
			t.Errorf("tier %s: executed zero ops", tier.Name)
		}
	}
	if !testing.Short() {
		if maxLines < 45000 || minLines > 1500 {
			t.Errorf("ladder spans %d..%d lines, want at least 1k→50k", minLines, maxLines)
		}
		if elapsed := time.Since(start); elapsed > 150*time.Second {
			t.Errorf("size ladder took %v; analysis should stay near-linear in program size", elapsed)
		}
	}
}
