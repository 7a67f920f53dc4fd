package experiments

import (
	"context"
	"fmt"

	"suifx/internal/parallel"
	"suifx/internal/tune"
	"suifx/internal/workloads"
)

// TuneApp runs the auto-tuning search over one workload's user-assisted
// Chapter 4 parallelization (the same plan source the parallel speedup
// experiments execute) and returns the report plus the parallelization
// result it searched, so callers can lower the winning plan and run it.
func TuneApp(ctx context.Context, name string, cfg tune.Config) (*tune.Report, *parallel.Result, error) {
	w, ok := workloads.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	res := userAssisted(w).Par
	rep, err := tune.Search(ctx, res, cfg)
	if err != nil {
		return nil, nil, err
	}
	return rep, res, nil
}
