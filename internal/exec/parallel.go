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

// bank is one plan worker's storage binding for one planned loop, and the
// only statement of the rule both engines run a position under: the index
// always; privates for every bank but planWorkers-1, which keeps the
// original storage as its private copy (§5.4) — approved privates write the
// identical region every iteration, so the shared array ends up exactly as
// a sequential run leaves it, elements the loop never writes included;
// reduction accumulators always; and every local of every procedure
// reachable from the body, since Fortran locals live on each processor's
// stack in the SPMD runtime and sharing the static copies would race.
// Common members redirect by (block, offset), so every alias in every
// procedure — the dispatching one's own included — lands on the bank's
// copy. The VM compiles the rule into a view's operands; the oracle's
// worker clone consults it in refOf.
type bank struct {
	syms   map[*ir.Symbol]int64
	common map[string]map[int64]int64
	view   *code // the VM's compilation of the body under this binding
}

func (b *bank) bind(sym *ir.Symbol, addr int64) {
	b.syms[sym] = addr
	if sym.Common != "" {
		if b.common[sym.Common] == nil {
			b.common[sym.Common] = map[int64]int64{}
		}
		b.common[sym.Common][sym.CommonOffset] = addr
	}
}

// addr resolves sym under the binding; ok is false for storage the bank
// leaves shared. A nil bank binds nothing.
func (b *bank) addr(sym *ir.Symbol) (addr int64, ok bool) {
	if b == nil {
		return 0, false
	}
	if addr, ok = b.syms[sym]; !ok && sym.Common != "" {
		addr, ok = b.common[sym.Common][sym.CommonOffset]
	}
	return addr, ok
}

// planRT is the plan runtime of one interpreter: every planned loop's
// banks, bound once in NewWithPlan.
type planRT struct {
	in    *Interp
	loops map[*ir.DoLoop]*loopRT
}

type loopRT struct {
	l     *ir.DoLoop
	lp    *LoopPlan
	banks []bank // one per plan worker
}

// lineCells is one 64-byte cache line in arena cells. NewWithPlan leaves
// this many unused cells in front of every bank block and every worker
// scratch block, so no two workers' cells share a line whatever the
// arena's base alignment: workers writing neighbouring cells of one line
// (an index, an accumulator, a callee local) would pass it back and forth
// on every iteration.
const lineCells = 64 / 8

// NewWithPlan builds an interpreter that executes the planned loops under
// the plan: private copies, reduction accumulators and per-worker scratch
// blocks are pre-allocated per worker so the arena never grows during
// execution. Loops are laid out in source order so the arena image is
// deterministic regardless of plan-map iteration order.
func NewWithPlan(prog *ir.Program, plan *ParallelPlan) *Interp {
	if plan == nil || plan.Workers < 1 {
		return New(prog)
	}
	in := newInterp(prog)
	in.plan = plan
	in.planRT = &planRT{in: in, loops: map[*ir.DoLoop]*loopRT{}}
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
	carve := func(n int64) int64 {
		base := top
		if top += n; top > MaxArenaCells {
			top = MaxArenaCells + 1
		}
		return base
	}
	for _, l := range loops {
		lp := plan.Loops[l]
		lrt := &loopRT{l: l, lp: lp, banks: make([]bank, plan.Workers)}
		in.planRT.loops[l] = lrt
		// One bank's copies in carve order: the index, the privates, the
		// reduction accumulators, then every local of every reachable
		// procedure. Each bank is one contiguous block after a line of
		// padding, and every bank carves every slot — bank planWorkers-1
		// leaves its privates unbound — so the layout does not depend on
		// which banks end up bound to theirs.
		type slot struct {
			sym     *ir.Symbol
			private bool
		}
		slots := []slot{{sym: l.Index}}
		for _, s := range lp.Private {
			if s != l.Index {
				slots = append(slots, slot{sym: s, private: true})
			}
		}
		for _, r := range lp.Reductions {
			slots = append(slots, slot{sym: r.Sym})
		}
		for _, proc := range reachableProcs(prog, l) {
			for _, sym := range proc.SortedSyms() {
				if sym.Common == "" && !sym.IsParam {
					slots = append(slots, slot{sym: sym})
				}
			}
		}
		for w := range lrt.banks {
			b := bank{syms: map[*ir.Symbol]int64{}, common: map[string]map[int64]int64{}}
			carve(lineCells)
			for _, s := range slots {
				addr := carve(s.sym.NElems())
				if !s.private || w < plan.Workers-1 {
					b.bind(s.sym, addr)
				}
			}
			lrt.banks[w] = b
		}
	}
	// One private scratch block per worker, shared across planned loops
	// (only one planned loop runs at a time — nested plans stay sequential
	// inside a parallel region). Without this, concurrent value-argument
	// spills from different workers would collide in the main scratch.
	in.workerTemp = make([]int64, plan.Workers)
	for w := range in.workerTemp {
		carve(lineCells)
		in.workerTemp[w] = carve(tempCells)
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

// runLoop is the one dispatch of a planned-loop invocation, whichever
// engine runs the body: width, position → bank, accumulators reset to
// their identity, the §4.5 chunk of each position, then — in position
// order — the positions' ops (returned for the dispatching clock), the
// first error, the schedule profile and the reduction merge. engine readies
// a position's private execution state over its bank and scratch block,
// under the budget left at dispatch, and returns what runs the body once
// plus done, called once after the position's last iteration, which
// returns the ops the position ran; launch runs the positions.
func (rt *planRT) runLoop(lrt *loopRT, lo, step float64, trips int64, shared func(*ir.Symbol) int64,
	launch func(n int, position func(p int)),
	engine func(b *bank, temp int64) (body func() error, done func() int64)) (int64, error) {
	in := rt.in
	workers := lrt.lp.width(in.plan.Workers, trips)
	if workers == 0 {
		return 0, nil
	}
	counters.parallelLoopRuns.Add(1)
	counters.parallelWorkers.Add(int64(workers))
	ids := planWorkerIDs(in.plan.Workers, workers)
	errs := make([]error, workers)
	wops := make([]int64, workers)
	launch(workers, func(p int) {
		b := &lrt.banks[ids[p]]
		for _, r := range lrt.lp.Reductions {
			acc := in.arena[b.syms[r.Sym]:][:r.Sym.NElems()]
			for k := range acc {
				acc[k] = identity(r.Op)
			}
		}
		body, done := engine(b, in.workerTemp[ids[p]])
		idx := b.syms[lrt.l.Index]
		errs[p] = forEachAssigned(trips, workers, p, func(it int64) error {
			in.arena[idx] = lo + float64(it)*step
			return body()
		})
		if ops := done(); errs[p] == nil {
			wops[p] = ops
		}
	})
	var ops int64
	for _, o := range wops {
		ops += o
	}
	for _, err := range errs {
		if err != nil {
			return ops, err
		}
	}
	in.noteParallel(lrt.l, wops)
	for _, red := range lrt.lp.Reductions {
		wb := make([]int64, workers)
		for p, id := range ids {
			wb[p] = lrt.banks[id].syms[red.Sym]
		}
		in.mergeReduction(red, wb, shared(red.Sym), lrt.lp)
	}
	return ops, nil
}

// inOrder launches the oracle's positions: one after another in the calling
// goroutine, so a planned tree run is deterministic by construction while
// privatization, last-position storage and reduction finalization still
// decide its answer.
func inOrder(n int, position func(p int)) {
	for p := 0; p < n; p++ {
		position(p)
	}
}

// onGoroutines launches the VM's positions: a goroutine each, all joined
// before it returns.
func onGoroutines(n int, position func(p int)) {
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			position(p)
		}(p)
	}
	wg.Wait()
}

// execParallelLoop runs one planned loop on the tree-walking engine. A
// position's clone shares the arena, resolves storage through its bank,
// spills into the bank's scratch block, keeps its own virtual-time counter
// — started at the dispatching clock, so the budget applies — and drops
// hooks and the plan (nesting stays sequential); its frame takes
// the dispatching frame's formals and nothing else, so no address the
// dispatching procedure cached before the loop outlives the binding.
func (in *Interp) execParallelLoop(f *frame, lrt *loopRT, lo, step float64, trips int64) error {
	start := in.ops
	ops, err := in.planRT.runLoop(lrt, lo, step, trips,
		func(sym *ir.Symbol) int64 { return in.refOf(f, sym).Base },
		inOrder,
		func(b *bank, tb int64) (func() error, func() int64) {
			wi := &Interp{
				Prog:      in.Prog,
				Out:       in.Out,
				Mode:      ModeTree,
				arena:     in.arena,
				base:      in.base,
				blockOff:  in.blockOff,
				ops:       start,
				MaxOps:    in.MaxOps,
				bank:      b,
				tempBase:  tb,
				tempTop:   tb,
				tempLimit: tb + tempCells,
			}
			wf := &frame{proc: f.proc, refs: map[*ir.Symbol]Ref{}}
			for _, formal := range f.proc.Params {
				if _, bound := b.addr(formal); !bound {
					wf.refs[formal] = in.refOf(f, formal)
				}
			}
			return func() error {
				_, err := wi.execStmts(wf, lrt.l.Body)
				return err
			}, func() int64 { return wi.ops - start }
		})
	in.ops += ops
	return err
}

// mergeReduction folds each position's accumulator into the shared storage
// (§6.3.1). Privates need no write-back: the last position used the
// original storage as its private copy (§5.4), so LoopPlan.Finalize only
// drives the cost model's accounting.
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
	return in.staticBase(sym)
}

// planFor returns the runtime of a loop this interpreter dispatches under
// its plan, nil for every other loop (and in a worker clone, always).
func (in *Interp) planFor(l *ir.DoLoop) *loopRT {
	if in.planRT == nil {
		return nil
	}
	return in.planRT.loops[l]
}

// ensurePlanRT compiles (once per interpreter) each bank's bytecode view of
// its planned loop: the body plus every reachable procedure re-lowered with
// the bank's addresses as fixed operands, not per-call map lookups.
func (in *Interp) ensurePlanRT(cd *code) *planRT {
	for li := range cd.loops {
		lm := &cd.loops[li]
		lrt := in.planRT.loops[lm.loop]
		if lrt == nil || lrt.banks[0].view != nil {
			continue
		}
		for w := range lrt.banks {
			b := &lrt.banks[w]
			b.view = fuseCode(compileLoopBody(in.Prog, cd.lay, in.Prog.ByName[lm.proc], lm.loop, b))
			counters.compiledViews.Add(1)
		}
	}
	return in.planRT
}

// runLoopVM runs one planned loop on the bytecode engine: one VM instance
// per position over the shared arena, each on its bank's view with its own
// stack, scratch block, snapshot of the dispatching frame's parameter
// bindings — formals the body references (and the bank does not bind)
// resolve exactly as the tree worker's frame does — and clock started at
// the dispatching one under the same budget. A position adds the
// instructions it retired to the engine counter once, when it is done, so
// no line is written by every worker on every iteration.
func (rt *planRT) runLoopVM(v *vm, lrt *loopRT, params []int64, lo, step float64, trips int64) error {
	in := rt.in
	psnap := append([]int64(nil), params...)
	start, maxOps := v.ops, v.maxOps // locals: a closure capturing v would move it to the heap
	ops, err := rt.runLoop(lrt, lo, step, trips,
		func(sym *ir.Symbol) int64 { return in.sharedBase(sym, psnap) },
		onGoroutines,
		func(b *bank, tb int64) (func() error, func() int64) {
			wv := &vm{
				cd:         b.view,
				mem:        in.arena,
				out:        in.Out,
				paramStore: append([]int64(nil), psnap...),
				stack:      make([]float64, b.view.maxStack),
				tempTop:    tb,
				tempLimit:  tb + tempCells,
				ops:        start,
				maxOps:     maxOps,
			}
			return wv.run, func() int64 {
				counters.instructions.Add(wv.instr)
				return wv.ops - start
			}
		})
	v.ops += ops
	return err
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
