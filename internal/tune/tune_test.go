// The tuner property suite. Three properties anchor it (the test-archetype
// contract of this PR):
//
//  1. The chosen plan never models worse than the default plan — for every
//     nest of every workload the search touches.
//  2. Every enumerated variant is semantics-preserving: executed under the
//     existing differential masks it reproduces the sequential answer.
//  3. The search is deterministic for a fixed (program, config): repeated
//     runs marshal byte-identically, budgeted or not.
//
// The suite sweeps every built-in workload (the 18 parallel ones, which
// include the full Nanz multicore suite) plus the corpus quick-ladder tiers.
package tune_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/exec"
	"suifx/internal/experiments"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/tune"
	"suifx/internal/workloads"
)

// tuned is one workload's search outcome plus the result it searched.
type tuned struct {
	rep *tune.Report
	res *parallel.Result
}

var (
	sweepOnce sync.Once
	sweep     map[string]tuned
	sweepErrs map[string]error
)

// tunedAll runs the default-config search over every built-in workload once
// per test binary and caches the outcomes. Workloads with no approved nest
// are dropped (there is nothing to tune).
func tunedAll(t *testing.T) map[string]tuned {
	t.Helper()
	sweepOnce.Do(func() {
		sweep = map[string]tuned{}
		sweepErrs = map[string]error{}
		for _, w := range workloads.All() {
			rep, res, err := experiments.TuneApp(context.Background(), w.Name, tune.Config{})
			if err != nil {
				sweepErrs[w.Name] = err
				continue
			}
			if len(rep.Loops) == 0 {
				continue
			}
			sweep[w.Name] = tuned{rep, res}
		}
	})
	for name, err := range sweepErrs {
		t.Fatalf("TuneApp(%s): %v", name, err)
	}
	return sweep
}

// enumeratedSpace is the per-nest variant-space size for a defaulted config:
// every audit trail must account for exactly this many variants as either
// searched or pruned.
func enumeratedSpace(cfg tune.Config) int {
	workers := len(cfg.Workers)
	if workers == 0 {
		workers = 4 // default {1,2,4,8}
	}
	return workers * (cfg.MaxDepth + 1)
}

// TestChosenNeverWorse is property 1 over the whole workload set: the search
// must find at least the 18 known-parallel workloads, and on every one of
// them the chosen variant's modeled cycles never exceed the default's — per
// nest and for the whole program — with a complete audit trail.
func TestChosenNeverWorse(t *testing.T) {
	all := tunedAll(t)
	if len(all) < 18 {
		var names []string
		for n := range all {
			names = append(names, n)
		}
		t.Fatalf("only %d workloads produced tunable nests (want >= 18): %v", len(all), names)
	}
	for _, w := range workloads.Suite("nanz") {
		if _, ok := all[w.Name]; !ok {
			t.Errorf("nanz workload %s missing from the tuned sweep", w.Name)
		}
	}
	space := enumeratedSpace(tune.Config{})
	for name, tu := range all {
		rep := tu.rep
		if rep.BudgetExhausted {
			t.Errorf("%s: unbudgeted search reported budget exhaustion", name)
		}
		for _, lr := range rep.Loops {
			if lr.Chosen.Cycles > lr.Default.Cycles {
				t.Errorf("%s %s: chosen cycles %.0f > default %.0f", name, lr.ID, lr.Chosen.Cycles, lr.Default.Cycles)
			}
			if lr.Speedup < 1 {
				t.Errorf("%s %s: speedup %.4f < 1", name, lr.ID, lr.Speedup)
			}
			if got := len(lr.Searched) + lr.Pruned; got != space {
				t.Errorf("%s %s: audit trail covers %d variants, enumerated space is %d", name, lr.ID, got, space)
			}
		}
		if rep.Speedup < 1 {
			t.Errorf("%s: program speedup %.4f < 1", name, rep.Speedup)
		}
		if rep.MinLoopSpeedup() < 1 {
			t.Errorf("%s: min loop speedup %.4f < 1", name, rep.MinLoopSpeedup())
		}
	}
}

// TestTunedPlanBitIdentical is property 2 for the winners: the composed
// tuned plan of every parallel workload — Nanz suite included — reproduces
// the sequential answer under the differential masks.
func TestTunedPlanBitIdentical(t *testing.T) {
	for name, tu := range tunedAll(t) {
		plan := tu.rep.BuildPlan(tu.res)
		if err := experiments.ValidatePlanned(tu.res, plan, exec.ModeAuto); err != nil {
			t.Errorf("%s: tuned plan diverges from sequential: %v", name, err)
		}
	}
}

// TestEveryVariantBitIdentical is property 2 for the losers too: every
// variant the search scored — every worker count and interchange depth in
// the audit trail — must itself be a sound plan.
// W=1 variants lower to the empty plan and are trivially sequential.
func TestEveryVariantBitIdentical(t *testing.T) {
	apps := []string{"mdg", "hydro", "chain", "randmat"}
	if testing.Short() {
		apps = apps[:1]
	}
	all := tunedAll(t)
	for _, name := range apps {
		tu, ok := all[name]
		if !ok {
			t.Fatalf("%s missing from the tuned sweep", name)
		}
		for _, lr := range tu.rep.Loops {
			li := tu.res.LoopByID(lr.ID)
			if li == nil {
				t.Fatalf("%s: loop %s not found in result", name, lr.ID)
			}
			for _, sc := range lr.Searched {
				if sc.Workers <= 1 {
					continue
				}
				plan := tune.VariantPlan(tu.res, li, sc.Variant)
				if plan == nil {
					t.Errorf("%s %s: variant %+v did not lower to a plan", name, lr.ID, sc.Variant)
					continue
				}
				if err := experiments.ValidatePlanned(tu.res, plan, exec.ModeAuto); err != nil {
					t.Errorf("%s %s variant %+v: diverges from sequential: %v", name, lr.ID, sc.Variant, err)
				}
			}
		}
	}
}

// searchTwice marshals two independent searches of the same (result, config).
func searchTwice(t *testing.T, res *parallel.Result, cfg tune.Config) (a, b []byte) {
	t.Helper()
	for i, out := range []*[]byte{&a, &b} {
		rep, err := tune.Search(context.Background(), res, cfg)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		*out = data
	}
	return a, b
}

// TestSearchDeterministic is property 3: for a fixed (program, config) the
// report is byte-identical across repeated searches — including under a
// budget, where the same prefix of the run order must execute.
func TestSearchDeterministic(t *testing.T) {
	_, res, err := experiments.TuneApp(context.Background(), "mdg", tune.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []tune.Config{
		{},
		{MaxDepth: 1},
		{MaxRuns: 3},
		{Workers: []int{2, 8}, DefaultWorkers: 2},
	} {
		a, b := searchTwice(t, res, cfg)
		if string(a) != string(b) {
			t.Errorf("cfg %+v: repeated searches differ:\n%s\n--\n%s", cfg, a, b)
		}
	}
}

// TestBudgetExhaustion pins the budget contract: the default plan runs
// first, so one run still yields a report where no nest regresses, the
// report is flagged, and the unexecuted variants are accounted as pruned.
func TestBudgetExhaustion(t *testing.T) {
	_, res, err := experiments.TuneApp(context.Background(), "mdg", tune.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tune.Config{MaxRuns: 1}
	rep, err := tune.Search(context.Background(), res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BudgetExhausted {
		t.Error("one-run budget on a multi-variant space must report exhaustion")
	}
	if rep.Runs != 1 {
		t.Errorf("runs = %d, want 1", rep.Runs)
	}
	space := enumeratedSpace(cfg)
	for _, lr := range rep.Loops {
		if lr.Speedup < 1 {
			t.Errorf("%s: budgeted speedup %.4f < 1", lr.ID, lr.Speedup)
		}
		if got := len(lr.Searched) + lr.Pruned; got != space {
			t.Errorf("%s: budgeted audit trail covers %d variants, enumerated space is %d", lr.ID, got, space)
		}
		// Only the baseline run executed: any scored variant beyond the
		// default came from the sequential profile (W=1), not a plan run.
		for _, sc := range lr.Searched {
			if sc.Workers > 1 && sc.Variant != lr.Default.Variant {
				t.Errorf("%s: variant %+v scored without a run under a one-run budget", lr.ID, sc.Variant)
			}
		}
	}
}

// TestSearchCancellation pins the context contract: a cancelled search
// returns the context error, no report, and advances the cancelled counter.
func TestSearchCancellation(t *testing.T) {
	_, res, err := experiments.TuneApp(context.Background(), "mdg", tune.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := tune.ReadCounters()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := tune.Search(ctx, res, tune.Config{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled search returned a report")
	}
	after := tune.ReadCounters()
	if after.Cancelled != before.Cancelled+1 {
		t.Errorf("cancelled counter %d -> %d, want +1", before.Cancelled, after.Cancelled)
	}
}

// TestInvalidConfigs pins Validate coverage: out-of-range knobs are rejected
// before any execution, and the invalid counter advances.
func TestInvalidConfigs(t *testing.T) {
	_, res, err := experiments.TuneApp(context.Background(), "chain", tune.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []tune.Config{
		{Workers: []int{0}},
		{Workers: []int{-2}},
		{Workers: []int{200}},
		{Workers: []int{2, 2}},
		{MaxDepth: -1},
		{MaxDepth: 99},
		{MaxRuns: -1},
		{MaxOps: -5},
		{DefaultWorkers: -1},
		{DefaultWorkers: 1000},
	}
	for _, cfg := range bad {
		before := tune.ReadCounters()
		rep, err := tune.Search(context.Background(), res, cfg)
		if err == nil || rep != nil {
			t.Errorf("cfg %+v: want validation error, got rep=%v err=%v", cfg, rep, err)
			continue
		}
		if after := tune.ReadCounters(); after.Invalid != before.Invalid+1 {
			t.Errorf("cfg %+v: invalid counter did not advance", cfg)
		}
	}
}

// corpusSearch generates a recorded corpus tier, parallelizes it, and tunes
// it under cfg — the scale leg of the property suite.
func corpusSearch(t *testing.T, tier corpus.Tier, cfg tune.Config) (*tune.Report, *parallel.Result) {
	t.Helper()
	p := tier.Generate()
	prog, err := minif.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatalf("tier %s: parse: %v", tier.Name, err)
	}
	res := parallel.Parallelize(prog, parallel.Config{UseReductions: true})
	rep, err := tune.Search(context.Background(), res, cfg)
	if err != nil {
		t.Fatalf("tier %s: search: %v", tier.Name, err)
	}
	return rep, res
}

// corpusTuneCfg keeps the corpus sweep affordable: three worker counts at
// depth <= 1.
func corpusTuneCfg() tune.Config {
	return tune.Config{Workers: []int{1, 2, 4}, MaxDepth: 1}
}

// TestCorpusQuickTune runs properties 1–3 over the corpus quick-ladder
// tiers: generated thousand-line programs with hundreds of nests, searched,
// validated bit-identical, and re-searched for byte equality.
func TestCorpusQuickTune(t *testing.T) {
	for _, tier := range corpus.QuickLadder() {
		tier := tier
		t.Run(tier.Name, func(t *testing.T) {
			cfg := corpusTuneCfg()
			rep, res := corpusSearch(t, tier, cfg)
			if len(rep.Loops) == 0 {
				t.Fatalf("tier %s: no tunable nests", tier.Name)
			}
			space := enumeratedSpace(cfg)
			for _, lr := range rep.Loops {
				if lr.Speedup < 1 {
					t.Errorf("%s: speedup %.4f < 1", lr.ID, lr.Speedup)
				}
				if got := len(lr.Searched) + lr.Pruned; got != space {
					t.Errorf("%s: audit trail covers %d variants, enumerated space is %d", lr.ID, got, space)
				}
			}
			if rep.Speedup < 1 {
				t.Errorf("program speedup %.4f < 1", rep.Speedup)
			}
			plan := rep.BuildPlan(res)
			if err := experiments.ValidatePlanned(res, plan, exec.ModeAuto); err != nil {
				t.Errorf("tuned plan diverges from sequential: %v", err)
			}
			a, b := searchTwice(t, res, cfg)
			if string(a) != string(b) {
				t.Error("repeated corpus searches are not byte-identical")
			}
		})
	}
}
