package driver

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/region"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// dump renders an Analysis to a canonical string keyed by stable names
// (procedure names, region IDs, statement positions), so analyses of two
// separately parsed instances of the same program can be compared.
func dump(a *summary.Analysis) string { return dumpWith(a, (*summary.Tuple).String) }

// dumpWith is dump with the rendering of one tuple left to the caller.
func dumpWith(a *summary.Analysis, render func(*summary.Tuple) string) string {
	var b strings.Builder
	procs := make([]string, 0, len(a.ProcSum))
	for name := range a.ProcSum {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	for _, name := range procs {
		fmt.Fprintf(&b, "== proc %s ==\n%s", name, render(a.ProcSum[name]))
	}

	// Labels may repeat within a procedure, so region IDs alone are not
	// unique; the source line span disambiguates.
	regKey := func(r *region.Region) string {
		lo, hi := r.Lines()
		return fmt.Sprintf("%s@%d-%d", r.ID(), lo, hi)
	}
	type regEntry struct {
		id string
		r  *region.Region
	}
	collect := func(m map[*region.Region]*summary.Tuple) []regEntry {
		out := make([]regEntry, 0, len(m))
		for r := range m {
			out = append(out, regEntry{regKey(r), r})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
		return out
	}
	for _, e := range collect(a.RegionSum) {
		fmt.Fprintf(&b, "== region %s ==\n%s", e.id, render(a.RegionSum[e.r]))
	}
	for _, e := range collect(a.BodySum) {
		fmt.Fprintf(&b, "== body %s ==\n%s", e.id, render(a.BodySum[e.r]))
	}

	ctxIDs := make([]regEntry, 0, len(a.Ctx))
	for r := range a.Ctx {
		ctxIDs = append(ctxIDs, regEntry{regKey(r), r})
	}
	sort.Slice(ctxIDs, func(i, j int) bool { return ctxIDs[i].id < ctxIDs[j].id })
	for _, e := range ctxIDs {
		c := a.Ctx[e.r]
		fmt.Fprintf(&b, "== ctx %s == idx=%s exact=%v variant=%v bounds=%s\n",
			e.id, c.IndexVar, c.Exact, c.Variant, c.Bounds)
	}

	afterIDs := make([]regEntry, 0, len(a.After))
	for r := range a.After {
		afterIDs = append(afterIDs, regEntry{regKey(r), r})
	}
	sort.Slice(afterIDs, func(i, j int) bool { return afterIDs[i].id < afterIDs[j].id })
	for _, e := range afterIDs {
		stmts := a.After[e.r]
		type stEntry struct {
			key string
			s   ir.Stmt
		}
		sts := make([]stEntry, 0, len(stmts))
		for s := range stmts {
			sts = append(sts, stEntry{fmt.Sprintf("L%d:%T", stmtLine(s), s), s})
		}
		sort.Slice(sts, func(i, j int) bool { return sts[i].key < sts[j].key })
		for _, se := range sts {
			fmt.Fprintf(&b, "== after %s %s ==\n%s", e.id, se.key, render(stmts[se.s]))
		}
	}
	return b.String()
}

func stmtLine(s ir.Stmt) int {
	switch st := s.(type) {
	case *ir.Call:
		return st.Pos.Line
	case *ir.DoLoop:
		return st.Pos.Line
	}
	return -1
}

// TestDriverMatchesSequential is the core determinism guarantee: the
// concurrent driver must reproduce the sequential analysis byte-for-byte on
// every workload.
func TestDriverMatchesSequential(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			want := dump(summary.Analyze(w.Fresh()))
			got := dump(Analyze(w.Fresh(), Options{Workers: 8}))
			if got != want {
				t.Fatalf("driver output differs from sequential analysis\n--- sequential ---\n%s\n--- driver ---\n%s", want, got)
			}
		})
	}
}

// TestCondenseBottomUp checks the SCC schedule: every component's deps have
// lower indices (bottom-up order), and each procedure appears exactly once.
func TestCondenseBottomUp(t *testing.T) {
	for _, w := range workloads.All() {
		prog := w.Program()
		sccs := condense(prog)
		seen := map[string]bool{}
		for i, s := range sccs {
			for _, d := range s.deps {
				if d >= i {
					t.Fatalf("%s: scc %d depends on %d (not bottom-up)", w.Name, i, d)
				}
			}
			for _, p := range s.procs {
				if seen[p.Name] {
					t.Fatalf("%s: proc %s in two components", w.Name, p.Name)
				}
				seen[p.Name] = true
			}
		}
		if len(seen) != len(prog.Procs) {
			t.Fatalf("%s: condensation covers %d of %d procs", w.Name, len(seen), len(prog.Procs))
		}
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	w := workloads.All()[0]
	r1, err := c.Analyze(w.Name, w.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Analyze(w.Name, w.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second request for identical source did not reuse the memoized result")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	// Different source -> different entry and key.
	r3, err := c.Analyze(w.Name, w.Source+"\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 || r3.SourceHash == r1.SourceHash {
		t.Fatal("modified source must not share the original cache entry")
	}
}

func TestCacheParseError(t *testing.T) {
	c := NewCache()
	if _, err := c.Analyze("bad", "THIS IS NOT MINIF((", Options{}); err == nil {
		t.Fatal("expected a parse error")
	}
}
