package experiments

import (
	"suifx/internal/exec"
	"suifx/internal/parallel"
	"suifx/internal/workloads"
)

// This file validates planned runs on the execution engines themselves (not
// just the machine cost model): a workload's user-assisted parallelization
// is lowered to a runtime plan, executed, and compared with a sequential
// run (§6.5.2).

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
		proc := li.Region.Proc
		for _, vr := range li.Dep.Vars {
			cls := vr.Class.String()
			if cls == "private" || cls == "index" {
				if lo, hi, ok := in.SymRange(proc.Name, proc.Own(vr.Sym).Name); ok {
					mask(lo, hi)
				}
			}
		}
		for _, c := range li.Region.AllCallSites() {
			callee := in.Prog.ByName[c.Name]
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
