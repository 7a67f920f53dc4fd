package driver

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// reachesSet computes {q : target is reachable from q over >= 1 call edge},
// i.e. the transitive callers of target — including target itself when it
// sits on a cycle. Together with target this is exactly the SCC-plus-callers
// closure the incremental driver promises to recompute.
func reachesSet(prog *ir.Program, target string) map[string]bool {
	cg := prog.CallGraph()
	out := map[string]bool{}
	for _, p := range prog.Procs {
		seen := map[string]bool{}
		var walk func(name string) bool
		walk = func(name string) bool {
			if seen[name] {
				return false
			}
			seen[name] = true
			for _, callee := range cg[name] {
				if callee == target || walk(callee) {
					return true
				}
			}
			return false
		}
		if walk(p.Name) {
			out[p.Name] = true
		}
	}
	out[target] = true
	return out
}

// TestIncrementalColdMatchesFull: the first Analyze of a cold Incremental is
// a whole-program run whose result is byte-identical to the one-shot driver.
func TestIncrementalColdMatchesFull(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			want := dump(Analyze(w.Fresh(), Options{Workers: 4}))
			inc := NewIncremental(w.Fresh(), Options{Workers: 4})
			sum, st := inc.Analyze()
			if st.Run != 1 || st.Reused != 0 || st.Recomputed != len(sum.Prog.Procs) {
				t.Fatalf("cold run stats = %+v, want run 1 recomputing all %d procs", st, len(sum.Prog.Procs))
			}
			if got := dump(sum); got != want {
				t.Fatalf("cold incremental analysis differs from the one-shot driver\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}

// TestIncrementalInvalidationClosure: invalidating one procedure recomputes
// exactly its SCC plus transitive callers — nothing else — and re-derives a
// byte-identical analysis.
func TestIncrementalInvalidationClosure(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Fresh()
			inc := NewIncremental(prog, Options{Workers: 4})
			sum, _ := inc.Analyze()
			want := dump(sum)

			for _, p := range prog.Procs {
				expected := reachesSet(prog, p.Name)
				inc.Invalidate(p.Name)
				sum2, st := inc.Analyze()
				if sum2 != sum {
					t.Fatalf("Analyze must return the same retained Analysis object")
				}
				got := map[string]bool{}
				for _, name := range st.RecomputedProcs {
					got[name] = true
				}
				if !reflect.DeepEqual(got, expected) {
					t.Fatalf("invalidate %s: recomputed %v, want the SCC+callers closure %v",
						p.Name, st.RecomputedProcs, keys(expected))
				}
				if st.Reused != len(prog.Procs)-len(expected) {
					t.Fatalf("invalidate %s: reused %d, want %d", p.Name, st.Reused, len(prog.Procs)-len(expected))
				}
				if after := dump(sum2); after != want {
					t.Fatalf("invalidate %s: re-analysis changed the result with no semantic change", p.Name)
				}
			}
		})
	}
}

// TestIncrementalNoopAnalyze: with nothing dirty, Analyze recomputes nothing.
func TestIncrementalNoopAnalyze(t *testing.T) {
	w := workloads.All()[0]
	inc := NewIncremental(w.Fresh(), Options{})
	inc.Analyze()
	_, st := inc.Analyze()
	if st.Recomputed != 0 || st.Reused != len(inc.Prog().Procs) {
		t.Fatalf("no-op analyze stats = %+v, want 0 recomputed", st)
	}
}

// TestIncrementalFromBranchesCleanly: an Incremental branched off a cached
// Result starts fully clean, produces the identical analysis, and later
// invalidations never mutate the shared cached result.
func TestIncrementalFromBranchesCleanly(t *testing.T) {
	c := NewCache()
	var multi *ir.Program
	for _, w := range workloads.All() {
		res := c.MustAnalyze(w.Name, w.Source, Options{Workers: 4})
		cachedDump := dump(res.Sum)

		inc := NewIncrementalFrom(res, Options{Workers: 4})
		sum, st := inc.Analyze()
		if st.Recomputed != 0 || st.Reused != len(res.Prog.Procs) {
			t.Fatalf("%s: branched run stats = %+v, want everything reused", w.Name, st)
		}
		if got := dump(sum); got != cachedDump {
			t.Fatalf("%s: branched analysis differs from the cached result", w.Name)
		}

		// Dirty everything in the branch; the shared cached analysis must
		// stay byte-identical (clone semantics), and the branch re-derives
		// the same facts.
		inc.InvalidateAll()
		sum2, _ := inc.Analyze()
		if got := dump(sum2); got != cachedDump {
			t.Fatalf("%s: re-derived branch differs from the cached result", w.Name)
		}
		if got := dump(res.Sum); got != cachedDump {
			t.Fatalf("%s: invalidating a branch mutated the shared cached analysis", w.Name)
		}
		if multi == nil && len(res.Prog.Procs) > 1 {
			multi = res.Prog
		}
	}
	if multi == nil {
		t.Fatal("no multi-procedure workload exercised the branch test")
	}
}

// TestIncrementalCancelBetweenWaves: a run cancelled after the mod/ref wave
// merged and before the summary wave started returns ctx's error, leaves the
// dirty set and the counters as they were, and the retry — cold, and again
// after a one-procedure invalidation — is byte-identical to summary.Analyze.
func TestIncrementalCancelBetweenWaves(t *testing.T) {
	w := workloads.ByName("mdg")
	prog := w.Fresh()
	want := dump(summary.Analyze(w.Fresh()))

	// The hook cancels as the last wave-1 procedure starts: that component
	// still completes, so wave 1 joins and merges, and wave 2 starts nothing.
	var cancel context.CancelFunc
	var left atomic.Int64
	inc := NewIncremental(prog, Options{Workers: 4, onProc: func(wave int, proc string) {
		if wave == 1 && left.Add(-1) == 0 {
			cancel()
		}
	}})
	cancelled := func(dirty int) {
		t.Helper()
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		left.Store(int64(dirty))
		runs := inc.Counters().Runs
		sum, st, err := inc.AnalyzeCtx(ctx)
		if !errors.Is(err, context.Canceled) || sum != nil || st.Run != 0 {
			t.Fatalf("cancelled run = (%v, %+v, %v), want (nil, zero stats, context.Canceled)", sum, st, err)
		}
		if c := inc.Counters(); c.Runs != runs {
			t.Fatalf("cancelled run was counted: runs %d -> %d", runs, c.Runs)
		}
	}

	cancelled(len(prog.Procs))
	sum, st := inc.Analyze()
	if st.Run != 1 || st.Recomputed != len(prog.Procs) {
		t.Fatalf("retry stats = %+v, want run 1 recomputing all %d procs", st, len(prog.Procs))
	}
	if got := dump(sum); got != want {
		t.Fatal("retry after a cancelled cold run differs from summary.Analyze")
	}

	order := prog.BottomUpOrder()
	leaf := order[0].Name
	closure := reachesSet(prog, leaf)
	inc.Invalidate(leaf)
	cancelled(len(closure))
	sum, st = inc.Analyze()
	if !reflect.DeepEqual(st.RecomputedSet(), closure) {
		t.Fatalf("retry recomputed %v, want the intact dirty set %v", st.RecomputedProcs, keys(closure))
	}
	if got := dump(sum); got != want {
		t.Fatal("retry after a cancelled incremental run differs from summary.Analyze")
	}
}

// TestIncrementalCounters: cumulative counters add up across runs.
func TestIncrementalCounters(t *testing.T) {
	w := workloads.ByName("mdg")
	prog := w.Fresh()
	inc := NewIncremental(prog, Options{})
	inc.Analyze()
	inc.Analyze() // no-op run
	p := prog.Procs[0].Name
	inc.Invalidate(p)
	_, st := inc.Analyze()
	c := inc.Counters()
	if c.Runs != 3 {
		t.Fatalf("runs = %d, want 3", c.Runs)
	}
	wantRecomputed := int64(len(prog.Procs) + st.Recomputed)
	if c.Recomputed != wantRecomputed {
		t.Fatalf("cumulative recomputed = %d, want %d", c.Recomputed, wantRecomputed)
	}
	wantReused := int64(len(prog.Procs)) + int64(st.Reused)
	if c.Reused != wantReused {
		t.Fatalf("cumulative reused = %d, want %d", c.Reused, wantReused)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
