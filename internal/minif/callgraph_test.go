package minif_test

import (
	"fmt"
	"slices"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// refGraph is a call graph rebuilt by a fresh walk over every statement of
// a program: the reference the graph the parser stores must match.
type refGraph struct {
	callees  map[string][]string
	sites    map[string][]ir.CallSite
	bottomUp []*ir.Proc
}

func buildRef(prog *ir.Program) refGraph {
	g := refGraph{callees: map[string][]string{}, sites: map[string][]ir.CallSite{}}
	for _, pr := range prog.Procs {
		g.callees[pr.Name] = nil
		ir.WalkStmts(pr.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.Call); ok {
				if !slices.Contains(g.callees[pr.Name], c.Name) {
					g.callees[pr.Name] = append(g.callees[pr.Name], c.Name)
				}
				g.sites[c.Name] = append(g.sites[c.Name], ir.CallSite{Caller: pr, Call: c})
			}
			return true
		})
	}
	done := map[string]bool{}
	var post func(name string)
	post = func(name string) {
		if done[name] {
			return
		}
		done[name] = true
		for _, c := range g.callees[name] {
			post(c)
		}
		g.bottomUp = append(g.bottomUp, prog.ByName[name])
	}
	for _, pr := range prog.Procs {
		post(pr.Name)
	}
	return g
}

// reachable is the DFS preorder over the reference graph from the CALLs of
// stmts in source order.
func (g refGraph) reachable(prog *ir.Program, stmts []ir.Stmt) []*ir.Proc {
	seen := map[string]bool{}
	var out []*ir.Proc
	var pre func(name string)
	pre = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		out = append(out, prog.ByName[name])
		for _, c := range g.callees[name] {
			pre(c)
		}
	}
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.Call); ok {
			pre(c.Name)
		}
		return true
	})
	return out
}

// graphInputs are every workload, every ladder tier (20k outside -short)
// and generated programs over 40 seeds with call depth and fan-out varied.
func graphInputs(t *testing.T) map[string]*ir.Program {
	progs := map[string]*ir.Program{}
	add := func(name, src string) {
		prog, err := minif.Parse(name, src)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		progs[name] = prog
	}
	for _, w := range workloads.All() {
		add(w.Name, w.Source)
	}
	tiers := corpus.SizeLadder()
	if testing.Short() {
		tiers = corpus.QuickLadder()
	}
	for _, tier := range tiers {
		p := tier.Generate()
		add("tier"+tier.Name, p.Source)
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := corpus.Config{
			TargetLines: 300 + 40*int(seed), CallDepth: 1 + int(seed)%5, CallFanout: 1 + int(seed)%3,
			LoopDepth: 1 + int(seed)%3, AliasDensity: 0.4, ReductionMix: 0.3, TripLo: 2, TripHi: 8,
		}
		add(fmt.Sprintf("gen-seed%d", seed), corpus.Generate(seed, cfg).Source)
	}
	return progs
}

// TestStoredCallGraphMatchesWalk checks the graph the parser stores against
// one rebuilt by a fresh statement walk: callees in first-occurrence order,
// call sites in program order, bottom-up order as DFS postorder and its
// reverse, and the procedures reachable from every procedure and loop body.
func TestStoredCallGraphMatchesWalk(t *testing.T) {
	for name, prog := range graphInputs(t) {
		ref := buildRef(prog)
		if got := prog.CallGraph(); len(got) != len(ref.callees) {
			t.Fatalf("%s: call graph has %d procedures, want %d", name, len(got), len(ref.callees))
		}
		for _, pr := range prog.Procs {
			if got, want := prog.CallGraph()[pr.Name], ref.callees[pr.Name]; !slices.Equal(got, want) {
				t.Errorf("%s: callees of %s = %v, want %v", name, pr.Name, got, want)
			}
			if got, want := prog.Sites(pr.Name), ref.sites[pr.Name]; !slices.Equal(got, want) {
				t.Errorf("%s: %d call sites of %s, want %d in program order", name, len(got), pr.Name, len(want))
			}
			if got, want := prog.Reachable(pr.Body), ref.reachable(prog, pr.Body); !slices.Equal(got, want) {
				t.Errorf("%s: reachable from %s = %v, want %v", name, pr.Name, got, want)
			}
			for _, l := range pr.Loops() {
				if got, want := prog.Reachable(l.Body), ref.reachable(prog, l.Body); !slices.Equal(got, want) {
					t.Errorf("%s: reachable from %s = %v, want %v", name, l.ID(pr.Name), got, want)
				}
			}
		}
		if got := prog.BottomUpOrder(); !slices.Equal(got, ref.bottomUp) {
			t.Errorf("%s: bottom-up order differs from the DFS postorder", name)
		}
		down := slices.Clone(ref.bottomUp)
		slices.Reverse(down)
		if got := prog.TopDownOrder(); !slices.Equal(got, down) {
			t.Errorf("%s: top-down order is not the bottom-up order reversed", name)
		}
	}
}
