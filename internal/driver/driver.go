package driver

import (
	"context"
	"runtime"

	"suifx/internal/ir"
	"suifx/internal/summary"
)

// Options configures the concurrent scheduler.
type Options struct {
	// Workers bounds the analysis worker pool. <= 0 means GOMAXPROCS.
	Workers int

	// onProc, when set, is called before each procedure is analyzed in each
	// wave (test hook: lets cancellation tests observe and gate progress).
	onProc func(wave int, proc string)
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Analyze runs the whole bottom-up interprocedural analysis (mod/ref, then
// array summaries) over prog with a bounded worker pool, fanning out across
// call-graph SCCs. The result is byte-identical to summary.Analyze: the
// per-procedure analyses are pure, and results are merged in the same
// deterministic bottom-up order regardless of completion order.
func Analyze(prog *ir.Program, opt Options) *summary.Analysis {
	sum, _ := NewIncremental(prog, opt).Analyze()
	return sum
}

// AnalyzeCtx is Analyze with cancellation: when ctx is cancelled, queued
// SCC waves are abandoned and the error is ctx's. The partial per-procedure
// work is discarded — a cancelled analysis returns nil. It is the all-dirty
// case of Incremental.AnalyzeCtx, the one bottom-up scheduler.
func AnalyzeCtx(ctx context.Context, prog *ir.Program, opt Options) (*summary.Analysis, error) {
	sum, _, err := NewIncremental(prog, opt).AnalyzeCtx(ctx)
	return sum, err
}

// SCC is one component of the exported analysis schedule: the procedures it
// contains (declaration order) and the indices of the components it calls
// into. Components are listed bottom-up, so every dep index is smaller than
// the component's own index.
type SCC struct {
	Procs []string `json:"procs"`
	Deps  []int    `json:"deps,omitempty"`
}

// Schedule returns the bottom-up SCC schedule the driver would run for
// prog — the call-graph condensation, in execution order.
func Schedule(prog *ir.Program) []SCC {
	sccs := condense(prog)
	out := make([]SCC, len(sccs))
	for i, s := range sccs {
		c := SCC{Procs: make([]string, len(s.procs))}
		for j, p := range s.procs {
			c.Procs[j] = p.Name
		}
		c.Deps = append(c.Deps, s.deps...)
		out[i] = c
	}
	return out
}

// bottomUpProcs is the deterministic merge order: the same order the
// sequential analyzers use (BottomUpOrder, declaration order on recursion).
func bottomUpProcs(prog *ir.Program) []*ir.Proc {
	order, ok := prog.BottomUpOrder()
	if !ok {
		return prog.Procs
	}
	return order
}
