// Package driver schedules the interprocedural analyses (mod/ref, array
// summaries — the bottom-up transfer summaries the liveness phase consumes)
// concurrently over the call graph, and memoizes whole-program results in a
// content-hash-keyed cache. Results are byte-identical to the sequential
// summary.Analyze / modref.Analyze paths: per-procedure analysis is pure,
// fresh names are minted per procedure, and merging happens in the same
// deterministic bottom-up order the sequential code uses.
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
// the call graph. The result is byte-identical to summary.Analyze: the
// per-procedure analyses are pure, and results are merged in the same
// deterministic bottom-up order regardless of completion order.
func Analyze(prog *ir.Program, opt Options) *summary.Analysis {
	sum, _ := NewIncremental(prog, opt).Analyze()
	return sum
}

// AnalyzeCtx is Analyze with cancellation: when ctx is cancelled, queued
// procedures are abandoned and the error is ctx's. The partial per-procedure
// work is discarded — a cancelled analysis returns nil. It is the all-dirty
// case of Incremental.AnalyzeCtx, the one bottom-up scheduler.
func AnalyzeCtx(ctx context.Context, prog *ir.Program, opt Options) (*summary.Analysis, error) {
	sum, _, err := NewIncremental(prog, opt).AnalyzeCtx(ctx)
	return sum, err
}

// SCC is one component of the exported analysis schedule: the procedures it
// contains and the indices of the components it calls into. Components are
// listed bottom-up, so every dep index is smaller than the component's own
// index. The parser rejects recursion, so every component is one procedure.
type SCC struct {
	Procs []string `json:"procs"`
	Deps  []int    `json:"deps,omitempty"`
}

// Schedule returns the bottom-up schedule the driver would run for prog, in
// execution order.
func Schedule(prog *ir.Program) []SCC {
	_, deps := units(prog)
	out := make([]SCC, len(deps))
	for i, p := range prog.BottomUpOrder() {
		out[i] = SCC{Procs: []string{p.Name}, Deps: deps[i]}
	}
	return out
}
