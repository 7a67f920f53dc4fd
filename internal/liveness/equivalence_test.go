package liveness_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/region"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the liveness answer snapshots under testdata/")

// program is one input of the answer-pinning suites: every built-in
// workload, the quick corpus tiers, and the 20k tier outside -short. The
// bottom-up analysis is built once and shared by the suites; nothing
// downstream of it writes to it.
type program struct {
	name  string
	parse func(t *testing.T) *ir.Program
	once  sync.Once
	built *summary.Analysis
}

func (p *program) sum(t *testing.T) *summary.Analysis {
	p.once.Do(func() { p.built = summary.Analyze(p.parse(t)) })
	return p.built
}

func tierProgram(t *testing.T, tier corpus.Tier) *ir.Program {
	p := tier.Generate()
	prog, err := minif.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatalf("parse tier %s: %v", tier.Name, err)
	}
	return prog
}

var programs = sync.OnceValue(func() []*program {
	var out []*program
	for _, w := range workloads.All() {
		w := w
		out = append(out, &program{name: w.Name, parse: func(*testing.T) *ir.Program { return w.Fresh() }})
	}
	tiers := corpus.QuickLadder()
	if !testing.Short() {
		if tier, ok := corpus.TierByName("20k"); ok {
			tiers = append(tiers, tier)
		}
	}
	for _, tier := range tiers {
		tier := tier
		out = append(out, &program{name: "tier-" + tier.Name, parse: func(t *testing.T) *ir.Program { return tierProgram(t, tier) }})
	}
	return out
})

// allRegions lists every region the top-down pass assigns an exit value:
// procedure tops, loops and loop bodies.
func allRegions(sum *summary.Analysis) []*region.Region {
	var out []*region.Region
	var walk func(r *region.Region)
	walk = func(r *region.Region) {
		out = append(out, r)
		for _, c := range r.Children {
			walk(c)
		}
	}
	for _, p := range sum.Prog.Procs {
		walk(sum.Reg.ProcTop[p.Name])
	}
	return out
}

func regionSyms(sum *summary.Analysis, r *region.Region) *summary.Tuple {
	if r.Kind == region.LoopBody {
		return sum.BodySum[r]
	}
	return sum.RegionSum[r]
}

// exposedAt returns the symbols still read after r per the Full pass. A
// symbol whose exposed section is empty counts as absent, so the snapshot
// does not depend on how the pass represents "nothing exposed".
func exposedAt(in *liveness.Info, r *region.Region) map[*ir.Symbol]bool {
	out := map[*ir.Symbol]bool{}
	for sym, e := range in.ExitSum[r] {
		if !e.IsEmpty() {
			out[sym] = true
		}
	}
	return out
}

// answers renders every answer the variant gives on the program as sorted
// lines "region sym common dead exposed": for each region, each symbol the
// region touches or (Full) that is exposed after it.
func answers(sum *summary.Analysis, in *liveness.Info) []string {
	var lines []string
	for _, r := range allRegions(sum) {
		exposed := map[*ir.Symbol]bool{}
		if in.Variant == liveness.Full {
			exposed = exposedAt(in, r)
		}
		syms := map[*ir.Symbol]bool{}
		for s := range exposed {
			syms[s] = true
		}
		if rs := regionSyms(sum, r); rs != nil {
			for s := range rs.Arrays {
				syms[s] = true
			}
		}
		for s := range syms {
			lines = append(lines, fmt.Sprintf("%s %s %s dead=%t exposed=%t", r.ID(), s.Name, s.Common, in.DeadAtExit(r, s), exposed[s]))
		}
	}
	sort.Strings(lines)
	return lines
}

// snapshot is the golden text for one program: a digest of every answer per
// variant, then the derived results the Chapter 5 tables print.
func snapshot(sum *summary.Analysis) string {
	var b strings.Builder
	for _, v := range []liveness.Variant{liveness.Full, liveness.OneBit, liveness.FlowInsensitive} {
		in := liveness.Analyze(sum, v)
		lines := answers(sum, in)
		h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		loops, modified, dead := in.DeadStats()
		fmt.Fprintf(&b, "%s: %d answers, digest %x; %d loops, %d modified arrays, %d dead at exit\n", v, len(lines), h[:8], loops, modified, dead)
		if v != liveness.Full {
			continue
		}
		for _, s := range in.CommonBlockSplits() {
			fmt.Fprintf(&b, "split /%s/ %s %s\n", s.Block, s.A.Name, s.B.Name)
		}
		for _, c := range in.Contractions() {
			fmt.Fprintf(&b, "contraction %s %s %d/%d\n", c.Loop.ID(), c.Sym.Name, c.FootprintElems, c.FullElems)
		}
	}
	return b.String()
}

// TestAnswersGolden pins every answer of the three variants — DeadAtExit and
// exposed-after for every region × symbol, DeadStats, the common-block
// splits and the contractions — on every workload and corpus tier. The
// snapshots were generated from the pass that propagated the full
// seven-component tuple (PR 19's), so a match certifies the exposed-reads-only
// pass answers identically. Regenerate with
// `go test ./internal/liveness -run TestAnswersGolden -update`.
func TestAnswersGolden(t *testing.T) {
	for _, p := range programs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			got := snapshot(p.sum(t))
			path := filepath.Join("testdata", p.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing snapshot (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("liveness answers on %s diverged from %s\n--- got ---\n%s--- want ---\n%s", p.name, path, got, want)
			}
		})
	}
}
