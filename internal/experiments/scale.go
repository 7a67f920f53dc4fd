package experiments

import (
	"fmt"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/summary"
)

// The scale runner measures how the whole toolchain behaves as program
// size grows: each corpus ladder tier is generated from its recorded
// (seed, config), then pushed through parse, whole-program analysis,
// parallelization, a one-procedure incremental re-analysis, and bytecode
// execution, with each stage timed separately. The per-tier points become
// BENCH_scale.json rows via the root BenchmarkScale harness and
// cmd/benchjson — and because every tier regenerates bit-for-bit from its
// manifest, any row can be reproduced from the tier name alone.

// ScalePoint is one tier's measurements.
type ScalePoint struct {
	Tier  string `json:"tier"`
	Seed  int64  `json:"seed"`
	Lines int    `json:"lines"`
	Procs int    `json:"procs"`
	Loops int    `json:"loops"`

	GenMs         float64 `json:"gen_ms"`
	ParseMs       float64 `json:"parse_ms"`
	AnalyzeMs     float64 `json:"analyze_ms"`
	ParallelizeMs float64 `json:"parallelize_ms"`
	IncrementalMs float64 `json:"incremental_ms"`
	ExecMs        float64 `json:"exec_ms"`

	ExecOps      int64 `json:"exec_ops"`
	ChosenLoops  int   `json:"chosen_loops"`
	BlockedLoops int   `json:"blocked_loops"`
	Recomputed   int   `json:"recomputed"` // procs redone by the incremental step
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ScaleRun measures one ladder tier end to end.
func ScaleRun(tier corpus.Tier) (*ScalePoint, error) {
	pt := &ScalePoint{Tier: tier.Name, Seed: tier.Seed}

	t0 := time.Now()
	p := tier.Generate()
	pt.GenMs = durMs(time.Since(t0))
	pt.Lines = p.Manifest.Stats.Lines
	pt.Procs = p.Manifest.Stats.Procs
	pt.Loops = p.Manifest.Stats.Loops

	t0 = time.Now()
	prog, err := minif.Parse(p.Name, p.Source)
	if err != nil {
		return nil, fmt.Errorf("tier %s: parse: %w", tier.Name, err)
	}
	pt.ParseMs = durMs(time.Since(t0))

	t0 = time.Now()
	sum := summary.Analyze(prog)
	pt.AnalyzeMs = durMs(time.Since(t0))

	t0 = time.Now()
	res := parallel.ParallelizeWith(sum, parallel.Config{UseReductions: true})
	pt.ParallelizeMs = durMs(time.Since(t0))
	for _, li := range res.Ordered {
		if li.Chosen {
			pt.ChosenLoops++
		}
		if !li.Dep.Parallelizable {
			pt.BlockedLoops++
		}
	}

	// Incremental step: after a cold run, touching one leaf-ish procedure
	// must re-analyze only its SCC and transitive callers — the interactive
	// edit-reanalyze latency the session subsystem promises, measured here
	// at every program size.
	inc := driver.NewIncremental(prog, driver.Options{})
	inc.Analyze() // cold; untimed (AnalyzeMs covers whole-program cost)
	inc.Invalidate(prog.Procs[0].Name)
	t0 = time.Now()
	_, st := inc.Analyze()
	pt.IncrementalMs = durMs(time.Since(t0))
	pt.Recomputed = st.Recomputed

	t0 = time.Now()
	in := exec.New(prog)
	if err := in.Run(); err != nil {
		return nil, fmt.Errorf("tier %s: exec: %w", tier.Name, err)
	}
	pt.ExecMs = durMs(time.Since(t0))
	pt.ExecOps = in.Ops()
	return pt, nil
}

// ScaleRunAll measures every given tier in order.
func ScaleRunAll(tiers []corpus.Tier) ([]*ScalePoint, error) {
	out := make([]*ScalePoint, 0, len(tiers))
	for _, tier := range tiers {
		pt, err := ScaleRun(tier)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
