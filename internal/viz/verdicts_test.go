package viz

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/verdicts")

// verdictInput is one program with a golden file: every workload, corpus
// tier 1k and the fixtures under testdata/fixtures. Tiers 5k and 20k are
// hashed in the driver's analysis.digests instead; thousands of loops are
// not reviewable text. live marks a fixture rendered as suifpar -liveness
// prints it.
type verdictInput struct {
	name  string
	parse func(*testing.T) *ir.Program
	live  bool
}

// liveFixtures are the fixtures whose verdicts depend on array liveness.
var liveFixtures = map[string]bool{"common-actual": true}

func verdictInputs() []verdictInput {
	var inputs []verdictInput
	for _, w := range workloads.All() {
		inputs = append(inputs, verdictInput{name: w.Name, parse: func(*testing.T) *ir.Program { return w.Fresh() }})
	}
	inputs = append(inputs, verdictInput{name: "tier-1k", parse: func(t *testing.T) *ir.Program {
		tier, _ := corpus.TierByName("1k")
		p := tier.Generate()
		prog, err := minif.Parse(p.Name, p.Source)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}})
	paths, _ := filepath.Glob(filepath.Join("testdata", "fixtures", "*.f"))
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".f")
		inputs = append(inputs, verdictInput{name: name, live: liveFixtures[name], parse: func(t *testing.T) *ir.Program {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := minif.Parse(name, string(src))
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}})
	}
	return inputs
}

// verdictsOf parallelizes prog the way suifpar does, without flags or, for
// a live input, with -liveness.
func (in verdictInput) verdictsOf(prog *ir.Program) *parallel.Result {
	sum := driver.Analyze(prog, driver.Options{Workers: 2})
	cfg := parallel.Config{UseReductions: true}
	if in.live {
		cfg.DeadAtExit = liveness.Analyze(sum, liveness.Full).Oracle()
	}
	return parallel.ParallelizeWith(sum, cfg)
}

func goldenPath(name string) string { return filepath.Join("testdata", "verdicts", name+".txt") }

// TestAnalysisVerdicts pins every loop verdict of the default compiler as
// the annotated source suifpar prints. The files were generated from the
// /v1/analyze loop records before the record moved into internal/parallel.
// Regenerate only for an intended change of answers:
// `go test ./internal/viz -run TestAnalysisVerdicts -update`.
func TestAnalysisVerdicts(t *testing.T) {
	for _, in := range verdictInputs() {
		t.Run(in.name, func(t *testing.T) {
			prog := in.parse(t)
			got := (&SourceView{Source: prog.Source, Verdicts: in.verdictsOf(prog).Verdicts()}).Render()
			path := goldenPath(in.name)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("verdicts of %s diverged from %s:\n%s", in.name, path, firstDiff(got, string(want)))
			}
		})
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}

// readVerdicts is the reader of the annotated source: it parses the
// directive lines back into loop records. A loop's start line is the number
// of the source line under its directives; its end line is not in the text
// and stays 0.
func readVerdicts(t *testing.T, text string) []parallel.LoopVerdict {
	t.Helper()
	var out, pending []parallel.LoopVerdict
	for _, line := range strings.Split(text, "\n") {
		d, ok := strings.CutPrefix(line, "       ")
		switch {
		case ok && strings.HasPrefix(d, "C$SEQ blocked by "):
			name, reason, _ := strings.Cut(strings.TrimPrefix(d, "C$SEQ blocked by "), ": ")
			lv := &pending[len(pending)-1]
			lv.Vars = append(lv.Vars, parallel.VarVerdict{Name: name, Class: "dependence", Reason: reason})
		case ok:
			pending = append(pending, readDirective(t, d))
		case len(pending) > 0:
			n, err := strconv.Atoi(strings.TrimSpace(line[1:6]))
			if err != nil {
				t.Fatalf("no DO header under a directive: %q", line)
			}
			for _, lv := range pending {
				lv.Lines[0] = n
				out = append(out, lv)
			}
			pending = nil
		}
	}
	return out
}

func readDirective(t *testing.T, d string) parallel.LoopVerdict {
	t.Helper()
	var lv parallel.LoopVerdict
	switch {
	case strings.HasPrefix(d, "C$PAR DO "):
		lv.Chosen, lv.Parallelizable = true, true
		d = strings.TrimPrefix(d, "C$PAR DO ")
	case strings.HasPrefix(d, "C$PAR "):
		lv.Parallelizable = true
		d = strings.TrimPrefix(d, "C$PAR ")
	case strings.HasPrefix(d, "C$SEQ "):
		d = strings.TrimPrefix(d, "C$SEQ ")
	default:
		t.Fatalf("not a loop directive: %q", d)
	}
	d, users, _ := strings.Cut(d, " [user: ")
	user := map[string]bool{}
	for _, name := range strings.Split(strings.TrimSuffix(users, "]"), ",") {
		user[name] = true
	}
	fields := strings.Fields(d)
	lv.ID = fields[0]
	for _, f := range fields[1:] {
		if f == "nested" {
			lv.UnderParallel = true
			continue
		}
		kw, list, _ := strings.Cut(strings.TrimSuffix(f, ")"), "(")
		class, op := map[string]string{"PRIVATE": "private", "SHARED": "parallel", "REDUCTION": "reduction"}[kw], ""
		if class == "reduction" {
			op, list, _ = strings.Cut(list, ":")
		}
		if class == "" {
			t.Fatalf("unknown clause %q", f)
		}
		for _, name := range strings.Split(list, ",") {
			lv.Vars = append(lv.Vars, parallel.VarVerdict{Name: name, Class: class, Reduction: op, ByAssertion: user[name]})
		}
	}
	return lv
}

// canonical orders each loop's variables by name and class and drops the
// end line, the two things the text does not keep.
func canonical(loops []parallel.LoopVerdict) []parallel.LoopVerdict {
	out := make([]parallel.LoopVerdict, len(loops))
	for i, lv := range loops {
		lv.Lines[1] = 0
		lv.Vars = append([]parallel.VarVerdict(nil), lv.Vars...)
		sort.SliceStable(lv.Vars, func(a, b int) bool {
			va, vb := lv.Vars[a], lv.Vars[b]
			return va.Name < vb.Name || va.Name == vb.Name && va.Class < vb.Class
		})
		out[i] = lv
	}
	return out
}

// TestVerdictsRoundTrip reads every golden file back into loop records. They
// equal Verdicts() but for each loop's end line, and for every chosen loop
// the privates and reductions with their operators equal what BuildPlan
// lowers: the text loses nothing the wire shape or the runtime uses. An
// asserted mdg covers the [user: …] clause, which no default verdict has.
func TestVerdictsRoundTrip(t *testing.T) {
	check := func(t *testing.T, res *parallel.Result, text string) {
		got := readVerdicts(t, text)
		if want := canonical(res.Verdicts()); !reflect.DeepEqual(canonical(got), want) {
			t.Fatalf("read back %d loops that differ from Verdicts() (%d loops)", len(got), len(want))
		}
		// got is in Ordered order now; loop IDs are not unique (two DOs may
		// share a terminal label), so loops are matched by position.
		plan := parallel.BuildPlan(res, 2)
		for i, li := range res.Ordered {
			if !li.Chosen {
				continue
			}
			lp := plan.Loops[li.Region.Loop]
			var wantPriv, wantRed, gotPriv, gotRed []string
			// The plan holds representatives; the text names each by the
			// loop procedure's own declaration.
			own := li.Region.Proc.Own
			for _, s := range lp.Private {
				wantPriv = append(wantPriv, own(s).Name)
			}
			for _, r := range lp.Reductions {
				wantRed = append(wantRed, r.Op+":"+own(r.Sym).Name)
			}
			for _, v := range got[i].Vars {
				switch v.Class {
				case "private":
					gotPriv = append(gotPriv, v.Name)
				case "reduction":
					gotRed = append(gotRed, v.Reduction+":"+v.Name)
				}
			}
			for _, l := range [][]string{wantPriv, wantRed, gotPriv, gotRed} {
				sort.Strings(l)
			}
			if !reflect.DeepEqual(gotPriv, wantPriv) || !reflect.DeepEqual(gotRed, wantRed) {
				t.Errorf("%s: text gives private %v reduction %v, BuildPlan lowers %v %v",
					li.ID(), gotPriv, gotRed, wantPriv, wantRed)
			}
		}
	}
	for _, in := range verdictInputs() {
		t.Run(in.name, func(t *testing.T) {
			text, err := os.ReadFile(goldenPath(in.name))
			if err != nil {
				t.Fatal(err)
			}
			check(t, in.verdictsOf(in.parse(t)), string(text))
		})
	}
	t.Run("mdg-asserted", func(t *testing.T) {
		w, _ := workloads.Lookup("mdg")
		prog := w.Fresh()
		res := parallel.ParallelizeWith(driver.Analyze(prog, driver.Options{Workers: 2}), parallel.Config{
			UseReductions: true,
			Assertions:    map[string]parallel.AssertSet{"INTERF/1000": {Private: map[string]bool{"RL": true}}},
		})
		text := (&SourceView{Source: prog.Source, Verdicts: res.Verdicts()}).Render()
		if !strings.Contains(text, "C$PAR DO INTERF/1000 PRIVATE(J,K,KC,RL,RS) REDUCTION(+:EPOT,FSUM) [user: RL]") {
			t.Fatalf("asserted loop not rendered as expected:\n%s", text)
		}
		check(t, res, text)
	})
}
