package exec

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"suifx/internal/ir"
)

// ReductionPlan describes one reduction variable of a parallel loop (§6.3).
type ReductionPlan struct {
	Sym *ir.Symbol
	Op  string // "+", "*", "MIN", "MAX"
}

// LoopPlan describes how to execute one approved parallel loop: which
// variables each worker privatizes, which privatized variables need
// last-iteration finalization, and the reduction transformation.
type LoopPlan struct {
	Private    []*ir.Symbol
	Finalize   []*ir.Symbol // privates written back from the last iteration
	Reductions []ReductionPlan
	// MaxWorkers, when > 0, caps this loop's schedule width below the
	// plan-wide worker count — the tuner's per-loop worker-count knob.
	// Storage banks are still allocated for the plan-wide count, and the
	// §5.4 last-position bank is unchanged.
	MaxWorkers int
	// Staggered selects the §6.3.4 finalization: the reduction region is
	// partitioned into Chunks sections finalized concurrently and worker w
	// starts at chunk w, minimizing contention. False = one global lock.
	Staggered bool
	Chunks    int
}

// width returns the loop's dispatch width for a trip count: the plan-wide
// worker count, clamped by the loop's MaxWorkers knob and by trips.
func (lp *LoopPlan) width(planWorkers int, trips int64) int {
	workers := planWorkers
	if lp.MaxWorkers > 0 && workers > lp.MaxWorkers {
		workers = lp.MaxWorkers
	}
	if trips < int64(workers) {
		workers = int(trips)
	}
	return workers
}

// ParallelPlan carries all loop plans plus the worker count.
type ParallelPlan struct {
	Workers int
	Loops   map[*ir.DoLoop]*LoopPlan
}

// NewWithPlan builds an interpreter that executes the planned loops in
// parallel with real goroutines: private copies, reduction accumulators and
// per-worker scratch blocks are pre-allocated per worker so the arena never
// grows during execution. Loops are laid out in source order so the arena
// image is deterministic regardless of plan-map iteration order.
func NewWithPlan(prog *ir.Program, plan *ParallelPlan) *Interp {
	if plan == nil || plan.Workers < 1 {
		return New(prog)
	}
	in := newInterp(prog)
	in.plan = plan
	in.workerBase = map[*ir.DoLoop]map[*ir.Symbol][]int64{}
	in.workerLocals = map[*ir.DoLoop][]map[*ir.Symbol]int64{}
	loops := make([]*ir.DoLoop, 0, len(plan.Loops))
	for l := range plan.Loops {
		loops = append(loops, l)
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Pos.Line != loops[j].Pos.Line {
			return loops[i].Pos.Line < loops[j].Pos.Line
		}
		return loops[i].Index.Name < loops[j].Index.Name
	})
	// Banks are laid out past the static storage and everything is allocated
	// once at the end, so an over-cap plan is refused with nothing allocated.
	top := min(in.tempLimit, MaxArenaCells+1) // tempLimit ends the static layout
	bank := func(n int64) int64 {
		base := top
		if top += n; top > MaxArenaCells {
			top = MaxArenaCells + 1
		}
		return base
	}
	for _, l := range loops {
		lp := plan.Loops[l]
		m := map[*ir.Symbol][]int64{}
		in.workerBase[l] = m
		alloc := func(sym *ir.Symbol) {
			bases := make([]int64, plan.Workers)
			for w := range bases {
				bases[w] = bank(sym.NElems())
			}
			m[sym] = bases
		}
		alloc(l.Index)
		for _, s := range lp.Private {
			if s != l.Index {
				alloc(s)
			}
		}
		for _, r := range lp.Reductions {
			alloc(r.Sym)
		}
		// Every local of every procedure reachable from the loop body gets
		// per-worker storage: Fortran locals live on each processor's stack
		// in the SPMD runtime, and sharing the static copies would race.
		perWorker := make([]map[*ir.Symbol]int64, plan.Workers)
		for w := range perWorker {
			perWorker[w] = map[*ir.Symbol]int64{}
		}
		for _, proc := range reachableProcs(prog, l) {
			for _, sym := range proc.SortedSyms() {
				if sym.Common != "" || sym.IsParam {
					continue
				}
				for w := 0; w < plan.Workers; w++ {
					perWorker[w][sym] = bank(sym.NElems())
				}
			}
		}
		in.workerLocals[l] = perWorker
	}
	// One private scratch block per worker, shared across planned loops
	// (only one planned loop runs at a time — nested plans stay sequential
	// inside a parallel region). Without this, concurrent value-argument
	// spills from different workers would collide in the main scratch.
	in.workerTemp = make([]int64, plan.Workers)
	for w := range in.workerTemp {
		in.workerTemp[w] = bank(tempCells)
	}
	in.allocArena(top)
	return in
}

// reachableProcs returns the procedures called (transitively) from a loop's
// body.
func reachableProcs(prog *ir.Program, l *ir.DoLoop) []*ir.Proc {
	seen := map[string]bool{}
	var out []*ir.Proc
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		p := prog.ByName[name]
		if p == nil {
			return
		}
		out = append(out, p)
		for _, c := range prog.CallGraph()[name] {
			visit(c)
		}
	}
	ir.WalkStmts(l.Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.Call); ok {
			visit(c.Name)
		}
		return true
	})
	return out
}

// identity returns the reduction identity element (§6.3.1).
func identity(op string) float64 {
	switch op {
	case "+":
		return 0
	case "*":
		return 1
	case "MIN":
		return math.Inf(1)
	case "MAX":
		return math.Inf(-1)
	}
	return 0
}

func combine(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "*":
		return a * b
	case "MIN":
		return math.Min(a, b)
	case "MAX":
		return math.Max(a, b)
	}
	return a
}

// forEachAssigned is the §4.5 dispatcher both runtimes share: position pos
// of a workers-wide loop runs the contiguous chunk
// [pos*trips/W, (pos+1)*trips/W) in increasing order.
func forEachAssigned(trips int64, workers, pos int, body func(it int64) error) error {
	w := int64(workers)
	for it := int64(pos) * trips / w; it < int64(pos+1)*trips/w; it++ {
		if err := body(it); err != nil {
			return err
		}
	}
	return nil
}

// planWorkerIDs maps dispatch positions to storage banks. The last plan
// worker keeps the original storage as its private copy (§5.4) and position
// workers-1 always runs iteration trips-1, so that position takes bank
// planWorkers-1; every other position uses its own.
func planWorkerIDs(planWorkers, workers int) []int {
	ids := make([]int, workers)
	for p := range ids {
		ids[p] = p
	}
	ids[workers-1] = planWorkers - 1
	return ids
}

// execParallelLoop runs one approved loop across the plan's workers on the
// tree-walking engine.
func (in *Interp) execParallelLoop(f *frame, l *ir.DoLoop, lp *LoopPlan, lo, hi, step float64, trips int64) (signal, error) {
	workers := lp.width(in.plan.Workers, trips)
	if workers == 0 {
		return sigNone, nil
	}
	counters.parallelLoopRuns.Add(1)
	counters.parallelWorkers.Add(int64(workers))
	ids := planWorkerIDs(in.plan.Workers, workers)
	bases := in.workerBase[l]
	var wg sync.WaitGroup
	errs := make([]error, workers)
	wops := make([]int64, workers)
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := ids[p]
			wi := in.workerClone(l, id)
			wf := &frame{proc: f.proc, refs: map[*ir.Symbol]Ref{}}
			for s, r := range f.refs {
				wf.refs[s] = r
			}
			// Rebind privates and reduction accumulators to worker storage.
			// Common-block members are overridden globally for this worker so
			// callees reach the private copy too. The LAST worker keeps the
			// original storage as its private copy (§5.4): since approved
			// privates write the identical region every iteration, the shared
			// array ends up exactly as a sequential run leaves it — including
			// elements the loop never writes.
			lastWorker := id == in.plan.Workers-1
			bind := func(sym *ir.Symbol, init bool, op string) {
				base := bases[sym][id]
				wf.refs[sym] = Ref{Base: base, Dims: sym.Dims}
				if sym.Common != "" {
					if wi.privCommon == nil {
						wi.privCommon = map[string]map[int64]int64{}
					}
					if wi.privCommon[sym.Common] == nil {
						wi.privCommon[sym.Common] = map[int64]int64{}
					}
					wi.privCommon[sym.Common][sym.CommonOffset] = base
				}
				if init {
					for k := int64(0); k < sym.NElems(); k++ {
						wi.arena[base+k] = identity(op)
					}
				}
			}
			bind(l.Index, false, "")
			for _, s := range lp.Private {
				if s != l.Index && !lastWorker {
					bind(s, false, "")
				}
			}
			for _, r := range lp.Reductions {
				bind(r.Sym, true, r.Op)
			}
			idx := wi.refOf(wf, l.Index)
			if err := forEachAssigned(trips, workers, p, func(it int64) error {
				wi.arena[idx.Base] = lo + float64(it)*step
				_, err := wi.execStmts(wf, l.Body)
				return err
			}); err != nil {
				errs[p] = err
				return
			}
			wops[p] = wi.ops
		}(p)
	}
	wg.Wait()
	for _, o := range wops {
		in.ops += o
	}
	for _, err := range errs {
		if err != nil {
			return sigNone, err
		}
	}
	in.noteParallel(l, wops)
	in.finalizeParallel(l, lp, ids, func(sym *ir.Symbol) int64 { return in.refOf(f, sym).Base })
	return sigNone, nil
}

// finalizeParallel merges the positions' reduction accumulators into the
// shared variables (§6.3.1, §6.3.4); shared resolves a variable's shared
// storage in the dispatching frame. No private write-back is needed: the
// last worker used the original storage as its private copy (§5.4), so the
// shared state already equals the sequential final state. The Finalize list
// only drives the cost model's accounting.
func (in *Interp) finalizeParallel(l *ir.DoLoop, lp *LoopPlan, ids []int, shared func(*ir.Symbol) int64) {
	for _, red := range lp.Reductions {
		wb := make([]int64, len(ids))
		for p, id := range ids {
			wb[p] = in.workerBase[l][red.Sym][id]
		}
		in.mergeReduction(red, wb, shared(red.Sym), lp)
	}
}

// mergeReduction folds each worker's accumulator into the shared storage.
// Both finalization disciplines combine every element's contributions in
// ascending worker order, so floating-point results are bit-identical run
// to run and identical between the disciplines:
//
//   - single-lock (§6.3.2): one goroutine walks workers 0..W-1 serially —
//     the schedule the one-lock protocol serializes to anyway, minus the
//     lock-arrival lottery that made + and * reductions nondeterministic.
//   - staggered (§6.3.4): the region is split into chunks and each chunk is
//     owned by exactly one finalizer goroutine (chunk c to goroutine
//     c mod W). Ownership replaces locking: chunks proceed concurrently,
//     but the per-element combine order stays workers 0..W-1.
func (in *Interp) mergeReduction(red ReductionPlan, wbases []int64, sharedBase int64, lp *LoopPlan) {
	workers := len(wbases)
	n := red.Sym.NElems()
	mergeRange := func(k0, k1 int64) {
		for w := 0; w < workers; w++ {
			base := wbases[w]
			for k := k0; k < k1; k++ {
				v := in.arena[base+k]
				if v != identity(red.Op) {
					in.arena[sharedBase+k] = combine(red.Op, in.arena[sharedBase+k], v)
				}
			}
		}
	}
	if !lp.Staggered || workers == 1 || n < int64(lp.Chunks) || lp.Chunks < 2 {
		mergeRange(0, n)
		return
	}
	chunks := lp.Chunks
	per := (n + int64(chunks) - 1) / int64(chunks)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := g; c < chunks; c += workers {
				k0 := int64(c) * per
				k1 := k0 + per
				if k1 > n {
					k1 = n
				}
				if k0 < k1 {
					mergeRange(k0, k1)
				}
			}
		}(g)
	}
	wg.Wait()
}

// sharedBase resolves a symbol's shared storage for reduction merging:
// formals through the dispatching frame's parameter bindings, commons and
// locals through the static layout.
func (in *Interp) sharedBase(sym *ir.Symbol, params []int64) int64 {
	if sym.IsParam {
		return params[sym.ParamIndex]
	}
	if sym.Common != "" {
		return in.blockOff[sym.Common] + sym.CommonOffset
	}
	return in.base[sym]
}

// workerClone shares the arena but rebases every reachable procedure's
// locals to this worker's private storage, gives the worker its own scratch
// block, keeps a private virtual-time counter, and drops hooks
// (instrumentation is not thread-safe).
func (in *Interp) workerClone(l *ir.DoLoop, w int) *Interp {
	base := in.base
	if locals := in.workerLocals[l]; len(locals) > w && len(locals[w]) > 0 {
		base = make(map[*ir.Symbol]int64, len(in.base))
		for k, v := range in.base {
			base[k] = v
		}
		for k, v := range locals[w] {
			base[k] = v
		}
	}
	tb, tt, tl := in.tempBase, in.tempTop, in.tempLimit
	if len(in.workerTemp) > w {
		tb = in.workerTemp[w]
		tt = tb
		tl = tb + tempCells
	}
	return &Interp{
		Prog:      in.Prog,
		Out:       in.Out,
		Mode:      ModeTree, // worker bodies run via execStmts; keep tree-only
		arena:     in.arena,
		base:      base,
		blockOff:  in.blockOff,
		tempBase:  tb,
		tempTop:   tt,
		tempLimit: tl,
	}
}

// planFor returns the plan for a loop, if parallel execution is enabled.
func (in *Interp) planFor(l *ir.DoLoop) *LoopPlan {
	if in.plan == nil || in.inParallel {
		return nil
	}
	return in.plan.Loops[l]
}

// ---------------------------------------------------------------------------
// Bytecode-side parallel runtime: per-worker views.

// planRT is the bytecode engine's parallel runtime for one interpreter:
// per-worker instruction streams compiled once per planned loop, keyed by
// the loop's index in the main code's loop table (identical in the plain
// and instrumented variants, which lower procedures in the same order).
type planRT struct {
	in    *Interp
	loops map[int32]*vmLoopRT
}

type vmLoopRT struct {
	l     *ir.DoLoop
	lp    *LoopPlan
	views []workerView
}

// workerView is one worker's address-specialized compilation of a planned
// loop body: privates, reductions and callee locals resolve to this
// worker's storage banks as fixed operands, not per-call map lookups.
type workerView struct {
	cd      *code
	idxAddr int64
	inits   []viewInit
}

// viewInit is a reduction accumulator to reset to its identity before the
// worker's first iteration.
type viewInit struct {
	base int64
	n    int64
	val  float64
}

// ensurePlanRT compiles (once per interpreter) one bytecode view per worker
// per planned loop and caches the runtime on the Interp.
func (in *Interp) ensurePlanRT(cd *code) *planRT {
	if in.planRT != nil {
		return in.planRT
	}
	rt := &planRT{in: in, loops: map[int32]*vmLoopRT{}}
	for li := range cd.loops {
		lm := &cd.loops[li]
		lp := in.plan.Loops[lm.loop]
		if lp == nil {
			continue
		}
		l := lm.loop
		proc := in.Prog.ByName[lm.proc]
		bases := in.workerBase[l]
		lrt := &vmLoopRT{l: l, lp: lp, views: make([]workerView, in.plan.Workers)}
		for w := 0; w < in.plan.Workers; w++ {
			rebind := map[*ir.Symbol]int64{}
			privCommon := map[string]map[int64]int64{}
			add := func(sym *ir.Symbol) {
				base := bases[sym][w]
				rebind[sym] = base
				if sym.Common != "" {
					if privCommon[sym.Common] == nil {
						privCommon[sym.Common] = map[int64]int64{}
					}
					privCommon[sym.Common][sym.CommonOffset] = base
				}
			}
			// Mirror the tree-walker's bind() exactly: index always, privates
			// for every worker but the last (§5.4), reductions always, plus
			// per-worker storage for every reachable procedure's locals.
			lastWorker := w == in.plan.Workers-1
			add(l.Index)
			for _, s := range lp.Private {
				if s != l.Index && !lastWorker {
					add(s)
				}
			}
			var inits []viewInit
			for _, r := range lp.Reductions {
				add(r.Sym)
				inits = append(inits, viewInit{base: bases[r.Sym][w], n: r.Sym.NElems(), val: identity(r.Op)})
			}
			if locals := in.workerLocals[l]; len(locals) > w {
				for sym, addr := range locals[w] {
					rebind[sym] = addr
				}
			}
			view := fuseCode(compileLoopBody(in.Prog, cd.lay, proc, l, rebind, privCommon))
			counters.compiledViews.Add(1)
			lrt.views[w] = workerView{cd: view, idxAddr: rebind[l.Index], inits: inits}
		}
		rt.loops[int32(li)] = lrt
	}
	in.planRT = rt
	return rt
}

// runLoop executes one planned loop on the bytecode engine: the §4.5 even
// chunks with one VM instance per worker over the shared arena,
// followed by deterministic reduction finalization. Worker ops are folded
// into the dispatching VM's clock, matching the tree-walker.
func (rt *planRT) runLoop(v *vm, lrt *vmLoopRT, params []int64, lo, step float64, trips int64) error {
	in := rt.in
	workers := lrt.lp.width(in.plan.Workers, trips)
	if workers == 0 {
		return nil
	}
	counters.parallelLoopRuns.Add(1)
	counters.parallelWorkers.Add(int64(workers))
	ids := planWorkerIDs(in.plan.Workers, workers)
	psnap := append([]int64(nil), params...)
	errs := make([]error, workers)
	wops := make([]int64, workers)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			view := &lrt.views[ids[p]]
			for _, init := range view.inits {
				for k := int64(0); k < init.n; k++ {
					in.arena[init.base+k] = init.val
				}
			}
			tb := in.workerTemp[ids[p]]
			wv := &vm{
				cd:  view.cd,
				mem: in.arena,
				out: in.Out,
				// The view inherits the dispatching frame's parameter
				// bindings, so formals referenced by the body (and not
				// privatized) resolve exactly as the tree worker's copied
				// frame does.
				paramStore: append([]int64(nil), psnap...),
				stack:      make([]float64, view.cd.maxStack),
				tempTop:    tb,
				tempLimit:  tb + tempCells,
				maxOps:     math.MaxInt64,
			}
			if err := forEachAssigned(trips, workers, p, func(it int64) error {
				in.arena[view.idxAddr] = lo + float64(it)*step
				return wv.run()
			}); err != nil {
				errs[p] = err
				return
			}
			wops[p] = wv.ops
		}(p)
	}
	wg.Wait()
	for _, o := range wops {
		v.ops += o
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	in.noteParallel(lrt.l, wops)
	in.finalizeParallel(lrt.l, lrt.lp, ids, func(sym *ir.Symbol) int64 { return in.sharedBase(sym, psnap) })
	return nil
}

// ---------------------------------------------------------------------------
// Parallel virtual-time statistics.

// ParLoopStat is the virtual-time execution profile of one planned loop.
type ParLoopStat struct {
	Line        int    // source line of the DO statement
	Index       string // loop index variable name
	Invocations int64
	Workers     int   // widest dispatch observed
	WorkerOps   int64 // Σ over invocations and workers of worker ops
	CritOps     int64 // Σ over invocations of the slowest worker's ops
}

// noteParallel accumulates one planned-loop invocation's dispatch profile.
// Dispatch is always from the sequential part of the run, so no locking.
func (in *Interp) noteParallel(l *ir.DoLoop, wops []int64) {
	if in.parStats == nil {
		in.parStats = map[*ir.DoLoop]*ParLoopStat{}
	}
	st := in.parStats[l]
	if st == nil {
		st = &ParLoopStat{Line: l.Pos.Line, Index: l.Index.Name}
		in.parStats[l] = st
	}
	st.Invocations++
	if len(wops) > st.Workers {
		st.Workers = len(wops)
	}
	var max int64
	for _, o := range wops {
		st.WorkerOps += o
		if o > max {
			max = o
		}
	}
	st.CritOps += max
}

// ParallelStats returns the per-planned-loop schedule profiles in source
// order.
func (in *Interp) ParallelStats() []ParLoopStat {
	out := make([]ParLoopStat, 0, len(in.parStats))
	for _, st := range in.parStats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// CriticalPathOps is the run's virtual time on an idealized machine with
// the plan's worker count: total ops with each planned loop's summed worker
// time replaced by its slowest worker's time under the §4.5 even-chunk
// schedule. The Chapter 4/6 speedup experiments are stated in this clock —
// it is deterministic and independent of the host's core count.
func (in *Interp) CriticalPathOps() int64 {
	crit := in.ops
	for _, st := range in.parStats {
		crit -= st.WorkerOps - st.CritOps
	}
	return crit
}

// Validate compares two arenas element-wise with a tolerance for the
// floating-point reassociation parallel reductions introduce (§6.5.2).
func Validate(seq, par []float64, tol float64) error {
	if len(seq) != len(par) {
		return fmt.Errorf("exec: arena sizes differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a == b {
			continue
		}
		diff := math.Abs(a - b)
		scale := math.Max(math.Abs(a), math.Abs(b))
		if diff > tol*math.Max(scale, 1) {
			return fmt.Errorf("exec: cell %d differs: %g vs %g", i, a, b)
		}
	}
	return nil
}
