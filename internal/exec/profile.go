package exec

import (
	"sort"

	"suifx/internal/ir"
)

// LoopProfile is the Loop Profile Analyzer's record for one loop (§2.5.1):
// total virtual time (operations), invocations, and iterations.
type LoopProfile struct {
	ID          string
	Loop        *ir.DoLoop
	Proc        string
	Invocations int64
	Iterations  int64
	// TotalOps counts operations executed inside the loop (inclusive of
	// nested loops and callees).
	TotalOps int64
	// Depth>0 entries were nested under another active loop when sampled.
	NestedOps int64
}

// OpsPerInvocation is the loop's average computation per invocation.
func (lp *LoopProfile) OpsPerInvocation() float64 {
	if lp.Invocations == 0 {
		return 0
	}
	return float64(lp.TotalOps) / float64(lp.Invocations)
}

// Profiler implements the Loop Profile Analyzer: it instruments loop entry
// and exit and records per-loop virtual time. Under the tree engine it runs
// as a hook chain; under the bytecode engine the VM tallies flat per-loop
// arrays which are folded in via absorb — the public API answers
// identically either way.
type Profiler struct {
	in        *Interp
	loops     map[*ir.DoLoop]*LoopProfile
	stack     []profEntry
	installed bool
}

type profEntry struct {
	lp      *LoopProfile
	startOp int64
}

// NewProfiler attaches a profiler to an interpreter (ordered after any
// previously attached analyzer).
func NewProfiler(in *Interp) *Profiler {
	p := &Profiler{in: in, loops: map[*ir.DoLoop]*LoopProfile{}}
	in.analyzers = append(in.analyzers, p)
	return p
}

// install chains the profiler into the interpreter's hooks for
// tree-walking runs (idempotent; called by Run).
func (p *Profiler) install(in *Interp) {
	if p.installed {
		return
	}
	p.installed = true
	prevEnter, prevExit, prevIter := in.hooks.OnLoopEnter, in.hooks.OnLoopExit, in.hooks.OnLoopIter
	in.hooks.OnLoopEnter = func(proc string, l *ir.DoLoop) {
		if prevEnter != nil {
			prevEnter(proc, l)
		}
		lp := p.loops[l]
		if lp == nil {
			lp = &LoopProfile{ID: l.ID(proc), Loop: l, Proc: proc}
			p.loops[l] = lp
		}
		lp.Invocations++
		p.stack = append(p.stack, profEntry{lp: lp, startOp: in.Ops()})
	}
	in.hooks.OnLoopIter = func(proc string, l *ir.DoLoop, iter int64) {
		if prevIter != nil {
			prevIter(proc, l, iter)
		}
		if lp := p.loops[l]; lp != nil {
			lp.Iterations++
		}
	}
	in.hooks.OnLoopExit = func(proc string, l *ir.DoLoop) {
		if prevExit != nil {
			prevExit(proc, l)
		}
		if len(p.stack) == 0 {
			return
		}
		top := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		top.lp.TotalOps += in.Ops() - top.startOp
	}
}

// absorb folds one bytecode run's per-loop tallies into the profile maps.
func (p *Profiler) absorb(cd *code, st *profState) {
	for li := range cd.loops {
		if st.inv[li] == 0 {
			continue // never entered: no profile entry, like the tree engine
		}
		lm := &cd.loops[li]
		lp := p.loops[lm.loop]
		if lp == nil {
			lp = &LoopProfile{ID: lm.loop.ID(lm.proc), Loop: lm.loop, Proc: lm.proc}
			p.loops[lm.loop] = lp
		}
		lp.Invocations += st.inv[li]
		lp.Iterations += st.iters[li]
		lp.TotalOps += st.tops[li]
	}
}

// TotalOps returns total program virtual time after the run.
func (p *Profiler) TotalOps() int64 { return p.in.Ops() }

// Profiles returns all loop profiles sorted by decreasing total time.
func (p *Profiler) Profiles() []*LoopProfile {
	out := make([]*LoopProfile, 0, len(p.loops))
	for _, lp := range p.loops {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalOps != out[j].TotalOps {
			return out[i].TotalOps > out[j].TotalOps
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Of returns the profile for a specific loop (nil if never executed).
func (p *Profiler) Of(l *ir.DoLoop) *LoopProfile { return p.loops[l] }
