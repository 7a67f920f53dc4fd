package driver

import (
	"context"
	"sort"
	"sync/atomic"

	"suifx/internal/ir"
	"suifx/internal/modref"
	"suifx/internal/summary"
)

// Incremental is the bottom-up scheduler: a re-analyzable view of one
// program's interprocedural analysis that keeps every merged per-procedure
// result (mod/ref effects and array summaries) and, when a source-level
// change dirties a procedure, recomputes only that procedure and its
// transitive callers — everything a bottom-up analysis could
// observe the change through. Clean procedures are served from the retained
// results, and per-run counters report exactly which summaries were
// recomputed versus reused. The one-shot driver.Analyze is the all-dirty
// case. User assertions never come here: no summary reads one (they are
// loop-scoped and owned by parallel.ReparallelizeWith).
//
// Invalidation granularity is the procedure: marking one dirties it plus
// the procedures that (transitively) call it. Callees are never dirtied — a
// bottom-up summary cannot depend on its callers.
//
// Compiled code (internal/exec) is a function of the ir.Program alone, so
// invalidation leaves it be.
//
// Incremental is not self-locking: callers serialize Invalidate/Analyze
// (sessions hold their own lock). The counters are atomics and may be read
// concurrently.
type Incremental struct {
	prog *ir.Program
	opt  Options

	order []*ir.Proc     // scheduling units and merge order: bottom-up
	pos   map[string]int // proc name -> index into order
	deps  [][]int        // order[i] calls order[deps[i]...]
	rev   [][]int        // order[i] is called by order[rev[i]...]

	mr    *modref.Info
	sum   *summary.Analysis
	dirty map[string]bool

	runs       atomic.Int64
	recomputed atomic.Int64
	reused     atomic.Int64
}

// IncStats describes one Analyze run: which procedure summaries were
// recomputed and which were served from the retained results.
type IncStats struct {
	// Run is the 1-based analysis run number on this Incremental.
	Run int `json:"run"`
	// Recomputed and Reused count procedure summaries this run.
	Recomputed int `json:"recomputed"`
	Reused     int `json:"reused"`
	// RecomputedProcs lists the recomputed procedures, sorted.
	RecomputedProcs []string `json:"recomputed_procs,omitempty"`
}

// RecomputedSet returns the recomputed procedures as a set.
func (st IncStats) RecomputedSet() map[string]bool {
	out := make(map[string]bool, len(st.RecomputedProcs))
	for _, p := range st.RecomputedProcs {
		out[p] = true
	}
	return out
}

// IncCounters are an Incremental's cumulative counters.
type IncCounters struct {
	Runs       int64 `json:"runs"`
	Recomputed int64 `json:"recomputed"`
	Reused     int64 `json:"reused"`
}

// NewIncremental builds an Incremental with every procedure dirty; the
// first Analyze is a cold whole-program run.
func NewIncremental(prog *ir.Program, opt Options) *Incremental {
	inc := newIncrementalShell(prog, opt)
	inc.InvalidateAll()
	return inc
}

// NewIncrementalFrom branches an Incremental off a cached whole-program
// Result: every procedure starts clean (the cached summaries are reused
// as-is), and later invalidations recompute into private clones, never
// touching the shared cached analysis.
func NewIncrementalFrom(res *Result, opt Options) *Incremental {
	inc := newIncrementalShell(res.Prog, opt)
	inc.mr = res.Sum.MR.Clone()
	inc.sum = res.Sum.Clone(inc.mr)
	return inc
}

func newIncrementalShell(prog *ir.Program, opt Options) *Incremental {
	pos, deps := units(prog)
	inc := &Incremental{
		prog:  prog,
		opt:   opt,
		order: prog.BottomUpOrder(),
		pos:   pos,
		deps:  deps,
		rev:   make([][]int, len(deps)),
		dirty: map[string]bool{},
	}
	for i, ds := range deps {
		for _, d := range ds {
			inc.rev[d] = append(inc.rev[d], i)
		}
	}
	return inc
}

// Prog returns the program this Incremental analyzes.
func (inc *Incremental) Prog() *ir.Program { return inc.prog }

// InvalidateAll dirties every procedure.
func (inc *Incremental) InvalidateAll() {
	for _, p := range inc.prog.Procs {
		inc.dirty[p.Name] = true
	}
}

// Invalidate dirties each named procedure plus every procedure that
// transitively calls it, and returns the number of procedures now dirty.
// Unknown names are ignored.
func (inc *Incremental) Invalidate(procs ...string) int {
	seen := map[int]bool{}
	var queue []int
	for _, name := range procs {
		if i, ok := inc.pos[name]; ok && !seen[i] {
			seen[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inc.dirty[inc.order[i].Name] = true
		for _, caller := range inc.rev[i] {
			if !seen[caller] {
				seen[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return len(inc.dirty)
}

// Counters returns the cumulative recompute/reuse counters.
func (inc *Incremental) Counters() IncCounters {
	return IncCounters{
		Runs:       inc.runs.Load(),
		Recomputed: inc.recomputed.Load(),
		Reused:     inc.reused.Load(),
	}
}

// Analyze is AnalyzeCtx without cancellation.
func (inc *Incremental) Analyze() (*summary.Analysis, IncStats) {
	// AnalyzeCtx errors only on cancellation, and Background never is.
	sum, st, _ := inc.AnalyzeCtx(context.Background())
	return sum, st
}

// procSlot holds one dirty procedure's fresh results. All slots are
// allocated before any worker starts; a worker writes only its own
// procedure's slot, and callers read it only after the procedure's
// done-channel closes — so cross-goroutine access is race-free without
// locks.
type procSlot struct {
	eff *modref.Effects
	res *summary.ProcResult
}

// AnalyzeCtx brings the analysis up to date: dirty procedures are recomputed
// bottom-up over the call graph with the driver's worker pool, clean
// procedures are served from the retained results, and the dirty set is
// cleared. The returned Analysis is the same object across runs (region and
// symbol identities are stable); per-run counters say exactly what was
// recomputed.
//
// When ctx is cancelled, procedures that have not started are abandoned and
// the result is nil, zero stats and ctx's error. The dirty set is left
// intact and the counters untouched, so a retry recomputes the same
// procedures; whatever the abandoned run already merged is overwritten then.
func (inc *Incremental) AnalyzeCtx(ctx context.Context) (*summary.Analysis, IncStats, error) {
	dirty := inc.dirty
	if len(dirty) == 0 {
		return inc.sum, inc.record(dirty), nil
	}

	slots := make(map[string]*procSlot, len(dirty))
	for name := range dirty {
		slots[name] = &procSlot{}
	}
	workers := inc.opt.workers()
	// wave adapts one per-procedure analysis to a unit callback that skips
	// clean procedures.
	wave := func(n int, analyze func(p *ir.Proc, slot *procSlot)) func(int) {
		return func(i int) {
			p := inc.order[i]
			if !dirty[p.Name] {
				return
			}
			if inc.opt.onProc != nil {
				inc.opt.onProc(n, p.Name)
			}
			analyze(p, slots[p.Name])
		}
	}

	// Wave 1: mod/ref effects. Clean callees resolve through the retained
	// merged map, which is read-only during the wave. The summary phase's
	// symbolic evaluator queries the full mod/ref Info, so this wave joins
	// completely first.
	if inc.mr == nil {
		inc.mr = modref.NewInfo(inc.prog)
	}
	effOf := func(name string) *modref.Effects {
		if s := slots[name]; s != nil {
			return s.eff
		}
		return inc.mr.EffectsOf(name)
	}
	err := runBottomUp(ctx, inc.deps, workers, wave(1, func(p *ir.Proc, slot *procSlot) {
		slot.eff = inc.mr.AnalyzeProc(p, effOf)
	}))
	if err != nil {
		return nil, IncStats{}, err
	}
	for _, p := range inc.order {
		if dirty[p.Name] {
			inc.mr.Merge(p.Name, slots[p.Name].eff)
		}
	}

	// Wave 2: array data-flow summaries. The Analysis skeleton (region
	// graph) is created once and kept, so region pointers stay stable
	// across re-analyses.
	if inc.sum == nil {
		inc.sum = summary.NewAnalysis(inc.prog, inc.mr)
	}
	sumOf := func(name string) *summary.Tuple {
		if s := slots[name]; s != nil {
			if s.res == nil {
				return nil
			}
			return s.res.ProcSum
		}
		return inc.sum.ProcSummary(name)
	}
	err = runBottomUp(ctx, inc.deps, workers, wave(2, func(p *ir.Proc, slot *procSlot) {
		slot.res = inc.sum.AnalyzeProc(p, sumOf)
	}))
	if err != nil {
		return nil, IncStats{}, err
	}
	for _, p := range inc.order {
		if dirty[p.Name] {
			inc.sum.Merge(slots[p.Name].res)
		}
	}
	inc.dirty = map[string]bool{}
	return inc.sum, inc.record(dirty), nil
}

// record counts one completed run that recomputed the procedures in dirty.
func (inc *Incremental) record(dirty map[string]bool) IncStats {
	st := IncStats{
		Run:        int(inc.runs.Add(1)),
		Recomputed: len(dirty),
		Reused:     len(inc.prog.Procs) - len(dirty),
	}
	for name := range dirty {
		st.RecomputedProcs = append(st.RecomputedProcs, name)
	}
	sort.Strings(st.RecomputedProcs)
	inc.recomputed.Add(int64(st.Recomputed))
	inc.reused.Add(int64(st.Reused))
	return st
}
