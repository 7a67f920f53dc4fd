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
// loops (DESIGN.md "Shadow-memory DDA: one clock stamp per cell").
type DynDep struct {
	in *Interp

	// IgnoreVar suppresses dependences on variables the compiler already
	// knows to be inductions or reductions for the given loop.
	IgnoreVar func(l *ir.DoLoop, addr int64) bool
	// SampleEvery > 1 instruments only iterations where
	// iter < SampleWarm || iter % SampleEvery == 0 (§2.5.2 optimization 2).
	SampleEvery int64
	SampleWarm  int64

	stack []*dynLoop
	// clock ticks at every loop entry and iteration; lastWrite holds each
	// cell's clock value at its last recorded write (the VM's rule, see
	// ddaState).
	clock     uint64
	lastWrite map[int64]uint64
	carried   map[*ir.DoLoop]int64 // loop -> dynamic loop-carried flow deps
	carriedAt map[*ir.DoLoop]map[int64]int64
	accesses  int64
	installed bool
}

// dynLoop is one live loop of the tree-walker's stack: the clock values at
// which this activation and its current iteration began.
type dynLoop struct {
	loop      *ir.DoLoop
	sampled   bool
	act, iter uint64
}

// NewDynDep attaches the dynamic dependence analyzer to an interpreter
// (ordered after any previously attached analyzer). Under the tree engine
// it runs as hook closures over a last-write map; under the bytecode
// engine the VM drives a shadow array of clock stamps (vm.go) — the
// public API answers identically.
func NewDynDep(in *Interp) *DynDep {
	d := &DynDep{in: in, lastWrite: map[int64]uint64{}, carried: map[*ir.DoLoop]int64{},
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
		d.clock++
		d.stack = append(d.stack, &dynLoop{loop: l, act: d.clock, iter: d.clock})
	}
	in.hooks.OnLoopIter = func(proc string, l *ir.DoLoop, iter int64) {
		if prevIter != nil {
			prevIter(proc, l, iter)
		}
		d.clock++
		top := d.stack[len(d.stack)-1]
		top.iter = d.clock
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

// count records n carried flow dependences of l at addr, unless the
// compiler already resolved the variable for l.
func (d *DynDep) count(l *ir.DoLoop, addr, n int64) {
	if d.IgnoreVar != nil && d.IgnoreVar(l, addr) {
		return
	}
	d.carried[l] += n
	m := d.carriedAt[l]
	if m == nil {
		m = map[int64]int64{}
		d.carriedAt[l] = m
	}
	m[addr] += n
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
	d.lastWrite[addr] = d.clock
}

func (d *DynDep) onRead(addr int64) {
	if !d.active() {
		return
	}
	d.accesses++
	t, ok := d.lastWrite[addr]
	if !ok {
		return
	}
	// The dependence is carried by the outermost loop whose current
	// iteration began after the write, if this activation of it began
	// before the write.
	for _, e := range d.stack {
		if e.iter > t {
			if e.act <= t {
				d.count(e.loop, addr, 1)
			}
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
