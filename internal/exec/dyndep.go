package exec

import (
	"sort"

	"suifx/internal/ir"
)

// DynDep implements the Dynamic Dependence Analyzer of §2.5.2: it
// instruments reads and writes, keeps the most recent write per memory
// location, and reports which loops carried a flow dependence during the
// run. Anti-dependences are ignored and same-iteration flow is not counted
// (privatization would remove it), exactly as the paper describes. Of the
// paper's two optimizations, sampling batches of iterations (SampleEvery)
// is available; skipping accesses the compiler proved independent is not,
// because a statement-level skip zeroes the counts of enclosing sequential
// loops (DESIGN.md "Shadow-memory DDA and the epoch reset").
type DynDep struct {
	in *Interp

	// IgnoreVar suppresses dependences on variables the compiler already
	// knows to be inductions or reductions for the given loop.
	IgnoreVar func(l *ir.DoLoop, addr int64) bool
	// SampleEvery > 1 instruments only iterations where
	// iter < SampleWarm || iter % SampleEvery == 0 (§2.5.2 optimization 2).
	SampleEvery int64
	SampleWarm  int64

	stack     []*dynLoop
	lastWrite map[int64]*writeRec
	carried   map[*ir.DoLoop]int64 // loop -> dynamic loop-carried flow deps
	carriedAt map[*ir.DoLoop]map[int64]int64
	accesses  int64
	installed bool
}

type dynLoop struct {
	loop    *ir.DoLoop
	iter    int64
	sampled bool
}

type writeRec struct {
	// iters captures, per active loop at the time of the write, the
	// iteration number (aligned with the loop stack).
	loops []*ir.DoLoop
	iters []int64
}

// NewDynDep attaches the dynamic dependence analyzer to an interpreter
// (ordered after any previously attached analyzer). Under the tree engine
// it runs as hook closures over a last-write map; under the bytecode
// engine the VM drives an epoch-tagged shadow-memory twin (vm.go) and the
// results are folded in via absorb — the public API answers identically.
func NewDynDep(in *Interp) *DynDep {
	d := &DynDep{in: in, lastWrite: map[int64]*writeRec{}, carried: map[*ir.DoLoop]int64{},
		carriedAt: map[*ir.DoLoop]map[int64]int64{}}
	in.analyzers = append(in.analyzers, d)
	return d
}

// install chains the analyzer into the interpreter's hooks for
// tree-walking runs (idempotent; called by Run).
func (d *DynDep) install(in *Interp) {
	if d.installed {
		return
	}
	d.installed = true
	prevEnter, prevExit, prevIter := in.hooks.OnLoopEnter, in.hooks.OnLoopExit, in.hooks.OnLoopIter
	prevRead, prevWrite := in.hooks.OnRead, in.hooks.OnWrite
	in.hooks.OnLoopEnter = func(proc string, l *ir.DoLoop) {
		if prevEnter != nil {
			prevEnter(proc, l)
		}
		d.stack = append(d.stack, &dynLoop{loop: l, iter: -1})
	}
	in.hooks.OnLoopIter = func(proc string, l *ir.DoLoop, iter int64) {
		if prevIter != nil {
			prevIter(proc, l, iter)
		}
		top := d.stack[len(d.stack)-1]
		top.iter = iter
		top.sampled = d.sampleIter(iter)
	}
	in.hooks.OnLoopExit = func(proc string, l *ir.DoLoop) {
		if prevExit != nil {
			prevExit(proc, l)
		}
		if len(d.stack) > 0 {
			d.stack = d.stack[:len(d.stack)-1]
		}
	}
	in.hooks.OnRead = func(addr int64, proc string, s ir.Stmt) {
		if prevRead != nil {
			prevRead(addr, proc, s)
		}
		d.onRead(addr)
	}
	in.hooks.OnWrite = func(addr int64, proc string, s ir.Stmt) {
		if prevWrite != nil {
			prevWrite(addr, proc, s)
		}
		d.onWrite(addr)
	}
}

// absorb folds one bytecode run's shadow-memory results into the
// analyzer's maps.
func (d *DynDep) absorb(cd *code, st *ddaState) {
	d.accesses += st.accesses
	for li, n := range st.carried {
		if n == 0 {
			continue
		}
		l := cd.loops[li].loop
		d.carried[l] += n
		m := d.carriedAt[l]
		if m == nil {
			m = map[int64]int64{}
			d.carriedAt[l] = m
		}
		for addr, c := range st.carriedAt[li] {
			m[addr] += c
		}
	}
}

func (d *DynDep) sampleIter(iter int64) bool {
	if d.SampleEvery <= 1 {
		return true
	}
	warm := d.SampleWarm
	if warm == 0 {
		warm = 2
	}
	return iter < warm || iter%d.SampleEvery == 0
}

// active reports whether the current iteration stack is being sampled.
func (d *DynDep) active() bool {
	for _, e := range d.stack {
		if !e.sampled {
			return false
		}
	}
	return true
}

func (d *DynDep) onWrite(addr int64) {
	if !d.active() {
		return
	}
	d.accesses++
	rec := &writeRec{
		loops: make([]*ir.DoLoop, len(d.stack)),
		iters: make([]int64, len(d.stack)),
	}
	for i, e := range d.stack {
		rec.loops[i] = e.loop
		rec.iters[i] = e.iter
	}
	d.lastWrite[addr] = rec
}

func (d *DynDep) onRead(addr int64) {
	if !d.active() {
		return
	}
	d.accesses++
	rec := d.lastWrite[addr]
	if rec == nil {
		return
	}
	// The dependence is carried by the outermost common loop whose
	// iteration number differs between writer and reader.
	n := len(d.stack)
	if len(rec.loops) < n {
		n = len(rec.loops)
	}
	for i := 0; i < n; i++ {
		if d.stack[i].loop != rec.loops[i] {
			return // different loop instances: not a carried dep we track
		}
		if d.stack[i].iter != rec.iters[i] {
			l := d.stack[i].loop
			if d.IgnoreVar != nil && d.IgnoreVar(l, addr) {
				return
			}
			d.carried[l]++
			m := d.carriedAt[l]
			if m == nil {
				m = map[int64]int64{}
				d.carriedAt[l] = m
			}
			m[addr]++
			return
		}
	}
}

// Carried reports the number of dynamic loop-carried flow dependences
// observed for a loop (0 = potentially parallelizable, a hint per §2.5.2).
func (d *DynDep) Carried(l *ir.DoLoop) int64 { return d.carried[l] }

// CarriedInRange reports dynamic carried dependences whose address falls in
// [lo, hi] — used by the assertion checker (§2.8) to refute independence
// claims about a specific variable.
func (d *DynDep) CarriedInRange(l *ir.DoLoop, lo, hi int64) int64 {
	var n int64
	for addr, c := range d.carriedAt[l] {
		if addr >= lo && addr <= hi {
			n += c
		}
	}
	return n
}

// Accesses returns how many accesses were instrumented (for the sampling
// ablation).
func (d *DynDep) Accesses() int64 { return d.accesses }

// LoopsWithDeps returns IDs of loops that carried dependences, sorted.
func (d *DynDep) LoopsWithDeps(prog *ir.Program) []string {
	var out []string
	for _, p := range prog.Procs {
		for _, l := range p.Loops() {
			if d.carried[l] > 0 {
				out = append(out, l.ID(p.Name))
			}
		}
	}
	sort.Strings(out)
	return out
}
