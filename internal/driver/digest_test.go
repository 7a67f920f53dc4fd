package driver

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/depend"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/analysis.digests")

func tierProgram(t *testing.T, name string) *ir.Program {
	t.Helper()
	tier, ok := corpus.TierByName(name)
	if !ok {
		t.Fatalf("no corpus tier %s", name)
	}
	p := tier.Generate()
	prog, err := minif.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatalf("parse tier %s: %v", name, err)
	}
	return prog
}

// dependDump renders every loop's dependence verdict under the options
// parallel.ParallelizeWith uses by default (reductions on, scalar liveness
// oracle): the verdict, each variable's class, reduction operator and
// region, and the reason a dependence blocks.
func dependDump(sum *summary.Analysis) string {
	opts := depend.Options{UseReductions: true, DeadAtExit: liveness.Analyze(sum, liveness.Full).ScalarOracle()}
	var b strings.Builder
	for _, r := range sum.Reg.LoopRegions() {
		lo, hi := r.Lines()
		res := depend.AnalyzeLoop(sum, r, opts)
		fmt.Fprintf(&b, "%s@%d-%d par=%t red=%t io=%t\n", r.ID(), lo, hi, res.Parallelizable, res.NeedsReduction, res.HasIO)
		for _, vr := range res.Vars {
			fmt.Fprintf(&b, "  %s /%s/ %s op=%q fin=%t reason=%q", vr.Sym.Name, vr.Sym.Common, vr.Class, vr.RedOp, vr.NeedsFinalization, vr.Reason)
			if vr.RedRegion != nil {
				fmt.Fprintf(&b, " region=%s", vr.RedRegion)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// digestLine is one program's golden line: a sha256 of the rendered
// bottom-up analysis (every region × symbol × component, every loop context)
// and one of every dependence verdict.
func digestLine(name string, prog *ir.Program) string {
	sum := Analyze(prog, Options{Workers: 2})
	return fmt.Sprintf("%s summary=%x depend=%x loops=%d",
		name, sha256.Sum256([]byte(dump(sum))), sha256.Sum256([]byte(dependDump(sum))), len(sum.Reg.LoopRegions()))
}

// TestAnalysisDigests pins what the bottom-up pass and the dependence test
// compute — every section as rendered, every verdict and reason — on every
// workload and corpus tier (20k outside -short). The digests were generated
// before lin.Expr became a sorted term vector and before the bottom-up pass
// shared sections instead of copying them, so a match certifies that neither
// changed a section or a verdict. Regenerate (without
// -short) only for an intended change of answers:
// `go test ./internal/driver -run TestAnalysisDigests -update`.
func TestAnalysisDigests(t *testing.T) {
	type input struct {
		name  string
		parse func(*testing.T) *ir.Program
	}
	var inputs []input
	for _, w := range workloads.All() {
		inputs = append(inputs, input{w.Name, func(*testing.T) *ir.Program { return w.Fresh() }})
	}
	tiers := []string{"1k", "5k"}
	if !testing.Short() {
		tiers = append(tiers, "20k")
	}
	for _, name := range tiers {
		inputs = append(inputs, input{"tier-" + name, func(t *testing.T) *ir.Program { return tierProgram(t, name) }})
	}

	path := filepath.Join("testdata", "analysis.digests")
	if *update {
		if testing.Short() {
			t.Fatal("-update needs the 20k tier: run without -short")
		}
		lines := make([]string, len(inputs))
		for i, in := range inputs {
			lines[i] = digestLine(in.name, in.parse(t))
		}
		sort.Strings(lines)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digests (run with -update): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if got := digestLine(in.name, in.parse(t)); got != want[in.name] {
				t.Errorf("analysis of %s diverged from %s\n got: %s\nwant: %s", in.name, path, got, want[in.name])
			}
		})
	}
}
