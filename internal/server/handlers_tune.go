package server

import (
	"context"
	"net/http"

	"suifx/internal/machine"
	"suifx/internal/parallel"
	"suifx/internal/tune"
)

// --- POST /v1/tune ---

// TuneRequest asks for an auto-tuning parallelization search: every
// approved parallel nest's strategy space (worker count × interchange
// depth) is executed under virtual time and scored with the machine cost
// model.
type TuneRequest struct {
	SourceRef
	// Workers are the candidate per-loop worker counts (default 1,2,4,8).
	Workers []int `json:"workers,omitempty"`
	// MaxDepth bounds the interchange knob (default 1).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxRuns budgets the search: at most this many plan executions. The
	// default plan always runs; a cut-short report carries
	// "budget_exhausted": true with the unexecuted variants counted pruned.
	MaxRuns int `json:"max_runs,omitempty"`
	// DefaultWorkers sets the baseline plan the speedups compare against.
	DefaultWorkers int `json:"default_workers,omitempty"`
	// MaxOps bounds each execution's virtual time (default 50M, as
	// /v1/profile); it also bounds how long a cancelled search's in-flight
	// run can straggle.
	MaxOps int64 `json:"max_ops,omitempty"`
	// Machine selects the cost model: "alpha" (default, AlphaServer 8400),
	// "challenge" (SGI Challenge) or "origin" (SGI Origin 2000).
	Machine string `json:"machine,omitempty"`
}

// TuneResponse is the search report. It carries no timestamps or elapsed
// fields: repeated requests for the same (program, knobs) are byte-identical.
type TuneResponse struct {
	Name string `json:"name"`
	*tune.Report
}

// tuneModel maps a user-facing machine name to a cost model.
func tuneModel(name string) (*machine.Model, error) {
	if m, ok := machine.ByName(name); ok {
		return m, nil
	}
	return nil, errf(http.StatusUnprocessableEntity,
		"unknown machine %q (want alpha, challenge or origin)", name)
}

func (s *Server) handleTune(ctx context.Context, r *http.Request) (any, error) {
	var req TuneRequest
	if err := s.decodeJSON(r, &req); err != nil {
		return nil, err
	}
	model, err := tuneModel(req.Machine)
	if err != nil {
		return nil, err
	}
	maxOps := req.MaxOps
	if maxOps <= 0 {
		maxOps = 50_000_000
	}
	cfg := tune.Config{
		Workers:        req.Workers,
		MaxDepth:       req.MaxDepth,
		MaxRuns:        req.MaxRuns,
		DefaultWorkers: req.DefaultWorkers,
		MaxOps:         maxOps,
		Model:          model,
	}
	if req.MaxDepth == 0 {
		cfg.MaxDepth = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	res, err := s.analyze(ctx, req.SourceRef, 0)
	if err != nil {
		return nil, err
	}
	par := parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true})

	// The search checks ctx between plan executions but a single run is
	// uninterruptible, so it executes on its own goroutine (bounded by
	// MaxOps) while this request observes ctx: a timeout or client
	// disconnect answers immediately and the search abandons its remaining
	// variants at the next run boundary.
	type tuneOut struct {
		resp *TuneResponse
		err  error
	}
	out := make(chan tuneOut, 1)
	go func() {
		rep, err := tune.Search(ctx, par, cfg)
		if err != nil {
			if ctx.Err() == nil {
				err = errf(http.StatusUnprocessableEntity, "tune failed: %v", err)
			}
			out <- tuneOut{err: err}
			return
		}
		out <- tuneOut{resp: &TuneResponse{Name: res.Prog.Name, Report: rep}}
	}()
	select {
	case o := <-out:
		return o.resp, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
