package exec_test

// Differential tests: every program is executed by both engines — the
// tree-walking interpreter (the oracle) and the VM — and every observable
// must match exactly: arena image (bit-for-bit), printed output, the virtual
// clock, loop profiles, and the dynamic dependence analyzer's counts.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// runResult captures everything observable about one execution.
type runResult struct {
	err      string
	ops      int64
	output   string
	arena    []float64
	profiles string
	carried  map[string]int64
	accesses int64
	deploops string
	// cells renders every DDA answer down to each loop's per-cell counts
	// (ddaPins): what AssertIndependent and Why read.
	cells string
}

type runConfig struct {
	instrument  bool
	profile     bool
	sampleEvery int64
	sampleWarm  int64
	maxOps      int64
}

func runEngine(t *testing.T, name, src string, mode exec.ExecMode, cfg runConfig) runResult {
	t.Helper()
	prog, err := minif.Parse(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	in := exec.New(prog)
	in.Mode = mode
	in.MaxOps = cfg.maxOps
	var out bytes.Buffer
	in.Out = &out

	var prof *exec.Profiler
	if cfg.profile {
		prof = exec.NewProfiler(in)
	}
	var dyn *exec.DynDep
	if cfg.instrument {
		dyn = exec.NewDynDep(in)
		dyn.SampleEvery = cfg.sampleEvery
		dyn.SampleWarm = cfg.sampleWarm
	}

	res := runResult{carried: map[string]int64{}}
	if err := in.Run(); err != nil {
		res.err = err.Error()
	}
	res.ops = in.Ops()
	res.output = out.String()
	res.arena = append([]float64(nil), in.Arena()...)
	if prof != nil {
		var sb strings.Builder
		for _, lp := range prof.Profiles() {
			fmt.Fprintf(&sb, "%s inv=%d iters=%d ops=%d\n", lp.ID, lp.Invocations, lp.Iterations, lp.TotalOps)
		}
		res.profiles = sb.String()
	}
	if dyn != nil {
		res.accesses = dyn.Accesses()
		res.deploops = strings.Join(dyn.LoopsWithDeps(prog), ",")
		res.cells = ddaPins(prog, dyn)
		for _, p := range prog.Procs {
			for _, l := range p.Loops() {
				if c := dyn.Carried(l); c != 0 {
					res.carried[l.ID(p.Name)] = c
				}
			}
		}
	}
	return res
}

// compareRuns asserts two runs observed exactly the same execution.
// compareOps is skipped for failed runs: within the failing statement the
// engines may attribute the final partial ticks differently (op totals are
// only defined at statement/loop boundaries).
//
// Budget relaxation: the VM checks the operation budget at basic-block
// boundaries rather than per instruction, so on a pure budget-exceeded
// error it may run unobserved arena stores a few instructions further than
// the tree-walker before faulting. Error text (including the budget value)
// and printed output must still match exactly; arena/profile/DDA state are
// not compared on those runs.
func compareRuns(t *testing.T, label string, tree, bc runResult) {
	t.Helper()
	if tree.err != bc.err {
		t.Fatalf("%s: error mismatch:\n tree: %q\n  vm:  %q", label, tree.err, bc.err)
	}
	if strings.Contains(tree.err, "operation budget exceeded") {
		if tree.output != bc.output {
			t.Errorf("%s: output mismatch on budget error:\n tree: %q\n  vm:  %q", label, tree.output, bc.output)
		}
		return
	}
	if tree.err == "" && tree.ops != bc.ops {
		t.Errorf("%s: ops mismatch: tree %d vs vm %d", label, tree.ops, bc.ops)
	}
	if tree.output != bc.output {
		t.Errorf("%s: output mismatch:\n tree: %q\n  vm:  %q", label, tree.output, bc.output)
	}
	if len(tree.arena) != len(bc.arena) {
		t.Fatalf("%s: arena sizes differ: %d vs %d", label, len(tree.arena), len(bc.arena))
	}
	for i := range tree.arena {
		if math.Float64bits(tree.arena[i]) != math.Float64bits(bc.arena[i]) {
			t.Fatalf("%s: arena[%d] differs: %v vs %v", label, i, tree.arena[i], bc.arena[i])
		}
	}
	if tree.err == "" && tree.profiles != bc.profiles {
		t.Errorf("%s: profiles mismatch:\n tree:\n%s vm:\n%s", label, tree.profiles, bc.profiles)
	}
	if tree.accesses != bc.accesses {
		t.Errorf("%s: instrumented accesses mismatch: tree %d vs vm %d", label, tree.accesses, bc.accesses)
	}
	if tree.deploops != bc.deploops {
		t.Errorf("%s: LoopsWithDeps mismatch: tree %q vs vm %q", label, tree.deploops, bc.deploops)
	}
	if len(tree.carried) != len(bc.carried) {
		t.Fatalf("%s: carried map sizes differ: tree %v vs vm %v", label, tree.carried, bc.carried)
	}
	for id, c := range tree.carried {
		if bc.carried[id] != c {
			t.Errorf("%s: carried[%s] mismatch: tree %d vs vm %d", label, id, c, bc.carried[id])
		}
	}
	if tree.cells != bc.cells {
		t.Errorf("%s: per-cell carried counts mismatch:\n tree:\n%s vm:\n%s", label, tree.cells, bc.cells)
	}
}

// diffBoth is the two-way differential: the tree-walker is the reference
// and the VM must match it on every observable. It returns the tree run.
func diffBoth(t *testing.T, label, name, src string, cfg runConfig) runResult {
	t.Helper()
	tree := runEngine(t, name, src, exec.ModeTree, cfg)
	compareRuns(t, label+"/vm", tree, runEngine(t, name, src, exec.ModeAuto, cfg))
	return tree
}

// TestDifferentialWorkloads runs every benchmark workload through both
// engines uninstrumented, fully instrumented, and with iteration sampling.
func TestDifferentialWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			diffBoth(t, w.Name+"/plain", w.Name, w.Source, runConfig{})
			diffBoth(t, w.Name+"/profile", w.Name, w.Source, runConfig{profile: true})
			diffBoth(t, w.Name+"/dda", w.Name, w.Source, runConfig{profile: true, instrument: true})
			diffBoth(t, w.Name+"/sampled", w.Name, w.Source,
				runConfig{profile: true, instrument: true, sampleEvery: 10})
		})
	}
}

// TestDifferentialErrors checks that runtime failures surface identically:
// same error text, same arena state, same output up to the fault.
func TestDifferentialErrors(t *testing.T) {
	cases := []struct {
		name, src string
		maxOps    int64
		wantErr   string
	}{
		{
			name: "bounds",
			src: `
      PROGRAM bnds
      REAL a(10)
      INTEGER i
      DO 10 i = 1, 20
        a(i) = i * 1.0
10    CONTINUE
      END
`,
			wantErr: "out of bounds",
		},
		{
			name: "divzero",
			src: `
      PROGRAM divz
      REAL x, y
      INTEGER i
      x = 4.0
      DO 10 i = 1, 5
        y = x / (3.0 - i)
10    CONTINUE
      END
`,
			wantErr: "division by zero",
		},
		{
			name: "zerostep",
			src: `
      PROGRAM zst
      INTEGER i, n
      REAL x
      n = 0
      DO 10 i = 1, 5, n
        x = x + 1.0
10    CONTINUE
      END
`,
			wantErr: "zero DO step",
		},
		{
			name: "sqrtneg",
			src: `
      PROGRAM sq
      REAL x
      x = SQRT(1.0 - 2.0)
      END
`,
			wantErr: "SQRT of negative",
		},
		{
			name: "budget",
			src: `
      PROGRAM bdg
      REAL s
      INTEGER i
      DO 10 i = 1, 100000
        s = s + i * 2.0
10    CONTINUE
      END
`,
			maxOps:  1000,
			wantErr: "operation budget exceeded (1000)",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := runConfig{profile: true, instrument: true, maxOps: tc.maxOps}
			tree := diffBoth(t, tc.name, tc.name, tc.src, cfg)
			if !strings.Contains(tree.err, tc.wantErr) {
				t.Fatalf("tree error %q does not contain %q", tree.err, tc.wantErr)
			}
		})
	}
}

// ---- random program quick-check ----

// The random program generator lives in internal/corpus (DiffProgram): it
// emits valid-by-construction MiniF programs — all array indices provably
// in bounds, no division, no unknown callees — so every generated program
// must run identically (and successfully) on both engines.

// TestDifferentialRandomPrograms quick-checks engine equivalence over
// generated programs, fully instrumented and with sampling.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for s := 0; s < seeds; s++ {
		src := corpus.DiffProgram(int64(s))
		name := fmt.Sprintf("rnd%03d", s)
		cfg := runConfig{profile: true, instrument: true}
		if s%3 == 1 {
			cfg.sampleEvery = 4
		}
		if s%3 == 2 {
			cfg.sampleEvery = 7
			cfg.sampleWarm = 3
		}
		if tree := diffBoth(t, name, name, src, cfg); tree.err != "" {
			t.Fatalf("seed %d: generated program failed on tree engine: %v\n%s", s, tree.err, src)
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged; source:\n%s", s, src)
		}
	}
}

// TestDifferentialCorpusScale runs the corpus factory's recorded scale
// tiers through both engines. The quick tiers run everywhere; the 20k-line
// tier joins outside -short. Instrumentation stays off at scale (the
// point here is engine equivalence on large programs, not DDA coverage —
// the random-program quick-check above exercises the instrumented paths).
func TestDifferentialCorpusScale(t *testing.T) {
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
			diffBoth(t, tier.Name, p.Name, p.Source, runConfig{profile: true})
		})
	}
}

// TestReportOrderStability is the regression test for report determinism:
// profile and dependence reports must come back in the same order across
// repeated runs and across engines.
func TestReportOrderStability(t *testing.T) {
	w := workloads.All()[0]
	cfg := runConfig{profile: true, instrument: true}
	base := runEngine(t, w.Name, w.Source, exec.ModeAuto, cfg)
	if base.profiles == "" {
		t.Fatal("no profiles produced")
	}
	for i := 0; i < 3; i++ {
		again := runEngine(t, w.Name, w.Source, exec.ModeAuto, cfg)
		if again.profiles != base.profiles {
			t.Fatalf("run %d: profile order changed:\n%s\nvs\n%s", i, again.profiles, base.profiles)
		}
		if again.deploops != base.deploops {
			t.Fatalf("run %d: LoopsWithDeps order changed: %q vs %q", i, again.deploops, base.deploops)
		}
	}
	tree := runEngine(t, w.Name, w.Source, exec.ModeTree, cfg)
	if tree.profiles != base.profiles || tree.deploops != base.deploops {
		t.Fatalf("tree/vm report order differs:\n%s\nvs\n%s", tree.profiles, base.profiles)
	}
}
