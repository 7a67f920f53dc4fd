package exec_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// reachPrograms are the programs whose per-loop reachable procedures are
// pinned under testdata/reach: every workload and the quick ladder.
func reachPrograms(t *testing.T) map[string]*ir.Program {
	progs := map[string]*ir.Program{}
	for _, w := range workloads.All() {
		progs[w.Name] = w.Fresh()
	}
	for _, tier := range corpus.QuickLadder() {
		src := tier.Generate()
		prog, err := minif.Parse(src.Name, src.Source)
		if err != nil {
			t.Fatalf("parse tier %s: %v", tier.Name, err)
		}
		progs["tier"+tier.Name] = prog
	}
	return progs
}

// TestReachableProcsPinned pins, for every loop, the procedures a planned
// run reaches from its body, in visiting order. That order is the bank
// layout of the loop's procedure locals and the entry order of its compiled
// body, so a change of order moves both. -update rewrites the files.
func TestReachableProcsPinned(t *testing.T) {
	for name, prog := range reachPrograms(t) {
		var sb strings.Builder
		for _, p := range prog.Procs {
			for _, l := range p.Loops() {
				fmt.Fprintf(&sb, "%s@%d:", l.ID(p.Name), l.Pos.Line)
				for _, r := range prog.Reachable(l.Body) {
					sb.WriteString(" " + r.Name)
				}
				sb.WriteString("\n")
			}
		}
		path := filepath.Join("testdata", "reach", name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if got := sb.String(); got != string(want) {
			t.Errorf("%s: reachable procedures moved\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}
