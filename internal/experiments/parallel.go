package experiments

import (
	"fmt"

	"suifx/internal/exec"
	"suifx/internal/parallel"
	"suifx/internal/workloads"
)

// This file re-runs the Chapter 4/6 speedup experiments on the execution
// engines themselves (not just the machine cost model): a workload's
// user-assisted parallelization is lowered to a runtime plan and executed,
// and speedup is reported in virtual time — sequential ops over the
// parallel run's critical-path ops under the §4.5 even-chunk schedule.
// Virtual time is deterministic and independent of the host's core count,
// so the curves are reproducible on a single-core CI runner where
// wall-clock parallel speedup is physically impossible.

// ParallelRunOptions selects the engine and schedule for RunParallel.
type ParallelRunOptions struct {
	Workers   int
	Mode      exec.ExecMode
	Staggered bool // §6.3.4 chunked finalization vs §6.3.2 single-lock
	Chunks    int
}

// RunParallel executes one workload under the plan derived from its
// user-assisted Chapter 4 parallelization and returns the finished
// interpreter (arena, ops and parallel stats intact) plus the analysis
// result the plan came from.
func RunParallel(name string, opt ParallelRunOptions) (*exec.Interp, *parallel.Result, error) {
	w, ok := workloads.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	res := userAssisted(w).Par
	plan := parallel.BuildPlanOpts(res, parallel.PlanOptions{
		Workers: opt.Workers, Staggered: opt.Staggered, Chunks: opt.Chunks,
	})
	in := exec.NewWithPlan(res.Prog, plan)
	in.Mode = opt.Mode
	if err := in.Run(); err != nil {
		return nil, nil, err
	}
	return in, res, nil
}

// ParallelPoint is one point of a virtual-time speedup curve.
type ParallelPoint struct {
	Workers   int
	SeqOps    int64   // sequential run's total ops
	CritOps   int64   // parallel run's critical-path ops
	VTSpeedup float64 // SeqOps / CritOps
}

// ParallelSpeedups runs one workload's plan at each worker count on the
// bytecode engine and reports the virtual-time speedup curve.
func ParallelSpeedups(name string, workers []int) ([]ParallelPoint, error) {
	w, ok := workloads.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	seq := exec.New(cached(w).Prog)
	if err := seq.Run(); err != nil {
		return nil, err
	}
	out := make([]ParallelPoint, 0, len(workers))
	for _, n := range workers {
		in, _, err := RunParallel(name, ParallelRunOptions{
			Workers: n, Staggered: true, Chunks: 4,
		})
		if err != nil {
			return nil, err
		}
		crit := in.CriticalPathOps()
		pt := ParallelPoint{Workers: n, SeqOps: seq.Ops(), CritOps: crit}
		if crit > 0 {
			pt.VTSpeedup = float64(seq.Ops()) / float64(crit)
		}
		out = append(out, pt)
	}
	return out, nil
}

// validateParallelRun is the §6.5.2 validation generalized over engine and
// finalization discipline: run sequentially and in parallel, mask storage
// that is legitimately dead after the parallel loops (privatized variables
// and callee locals), and compare the rest.
func validateParallelRun(name string, workers int, mode exec.ExecMode, staggered bool) error {
	res := userAssisted(workloads.ByName(name)).Par
	plan := parallel.BuildPlanOpts(res, parallel.PlanOptions{
		Workers: workers, Staggered: staggered, Chunks: 4,
	})
	return ValidatePlanned(res, plan, mode)
}

// ValidatePlanned runs res's program sequentially and under an arbitrary
// execution plan over the same parallelization result — any worker count,
// per-loop worker cap or interchange depth the tuner may enumerate — on
// the engine mode names, and compares live storage under the parallel-dead
// masks: a plan that survives it produced the sequential answer.
func ValidatePlanned(res *parallel.Result, plan *exec.ParallelPlan, mode exec.ExecMode) error {
	seq := exec.New(res.Prog)
	seq.Mode = mode
	if err := seq.Run(); err != nil {
		return err
	}
	par := exec.NewWithPlan(res.Prog, plan)
	par.Mode = mode
	if err := par.Run(); err != nil {
		return err
	}
	// Compare only live program storage: everything from ScratchBase on is
	// call-argument spill space, dead between statements, and parallel
	// workers spill into their own blocks rather than the base region.
	n := seq.ScratchBase()
	seqA := append([]float64(nil), seq.Arena()[:n]...)
	parA := append([]float64(nil), par.Arena()[:n]...)
	maskPlannedDead(res, plan, par, seqA, parA)
	return exec.Validate(seqA, parA, 1e-6)
}

// maskPlannedDead zeroes the cells of both images that a planned run may
// legitimately leave different from a sequential run: privatized variables
// (including inner loop indices) of each planned loop and the static locals
// of procedures called inside it. It masks by the plan's actual loops — a
// tuner interchange variant plans an inner nest level, and that level's
// classification (not the outermost one) names the privatized storage.
func maskPlannedDead(res *parallel.Result, plan *exec.ParallelPlan, in *exec.Interp, seqA, parA []float64) {
	n := int64(len(seqA))
	mask := func(lo, hi int64) {
		for i := lo; i <= hi && i < n; i++ {
			seqA[i], parA[i] = 0, 0
		}
	}
	for _, li := range res.Ordered {
		if plan.Loops[li.Region.Loop] == nil {
			continue
		}
		proc := li.Region.Proc.Name
		for _, vr := range li.Dep.Vars {
			cls := vr.Class.String()
			if cls == "private" || cls == "index" {
				if lo, hi, ok := in.SymRange(proc, vr.Sym.Name); ok {
					mask(lo, hi)
				}
			}
		}
		for _, c := range li.Region.AllCallSites() {
			callee := in.Prog.ByName[c.Name]
			if callee == nil {
				continue
			}
			for _, sym := range callee.SortedSyms() {
				if sym.Common == "" && !sym.IsParam {
					if lo, hi, ok := in.SymRange(callee.Name, sym.Name); ok {
						mask(lo, hi)
					}
				}
			}
		}
	}
}
