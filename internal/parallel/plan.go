package parallel

import (
	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/region"
)

// PlanOptions selects the worker count and the reduction finalization of an
// execution plan built from a parallelization result. Dispatch is always the
// §4.5 even contiguous chunks.
type PlanOptions struct {
	Workers int
	// Staggered selects the §6.3.4 chunked reduction finalization; false is
	// the §6.3.2 single-lock (serial-order) baseline.
	Staggered bool
	Chunks    int
}

// DefaultPlanOptions is the finalization every production plan uses —
// BuildPlan's and the tuner's: §6.3.4 staggered over four chunks.
func DefaultPlanOptions(workers int) PlanOptions {
	return PlanOptions{Workers: workers, Staggered: true, Chunks: 4}
}

// BuildPlan converts a parallelization result into a runtime execution plan
// for the chosen loops — privatized variables (inner indices included),
// last-iteration finalization lists, and reduction accumulators — under
// DefaultPlanOptions.
func BuildPlan(res *Result, workers int) *exec.ParallelPlan {
	return BuildPlanOpts(res, DefaultPlanOptions(workers))
}

// BuildPlanOpts is BuildPlan with an explicit finalization discipline
// applied to every chosen loop.
func BuildPlanOpts(res *Result, opt PlanOptions) *exec.ParallelPlan {
	plan := &exec.ParallelPlan{Workers: opt.Workers, Loops: map[*ir.DoLoop]*exec.LoopPlan{}}
	for _, li := range res.Ordered {
		if !li.Chosen {
			continue
		}
		plan.Loops[li.Region.Loop] = LowerLoop(li, opt)
	}
	return plan
}

// LowerLoop lowers one loop's dependence verdict to a runtime loop plan:
// the variable classification becomes private/finalize/reduction lists and
// the options become the finalization discipline. The loop need not be Chosen —
// the tuner lowers proven-parallelizable inner loops when an interchange
// variant parallelizes a deeper nest level.
func LowerLoop(li *LoopInfo, opt PlanOptions) *exec.LoopPlan {
	lp := &exec.LoopPlan{Staggered: opt.Staggered, Chunks: opt.Chunks}
	for _, vr := range li.Dep.Vars {
		switch vr.Class.String() {
		case "private":
			lp.Private = append(lp.Private, vr.Sym)
			if vr.NeedsFinalization {
				lp.Finalize = append(lp.Finalize, vr.Sym)
			}
		case "reduction":
			lp.Reductions = append(lp.Reductions, exec.ReductionPlan{Sym: vr.Sym, Op: vr.RedOp})
		}
	}
	return lp
}

// LoopAtDepth walks a chosen nest's unambiguous chain of singly-nested
// loops and returns the loop d levels inside li (li itself at d == 0). It
// returns nil when the chain ends early — a level with zero or several
// sibling loops stops the walk, since "the loop at depth d" is no longer
// well defined there.
func LoopAtDepth(res *Result, li *LoopInfo, d int) *LoopInfo {
	cur := li
	for step := 0; step < d; step++ {
		var inner *region.Region
		for _, c := range cur.Region.Body().Children {
			if c.Kind != region.LoopRegion {
				continue
			}
			if inner != nil {
				return nil // ambiguous: two sibling loops at this level
			}
			inner = c
		}
		if inner == nil {
			return nil
		}
		cur = res.Loops[inner]
		if cur == nil {
			return nil
		}
	}
	return cur
}

// InterchangeDepths returns the nest depths at which li's loop nest may
// legally be parallelized instead of at its outermost level: depth 0 (the
// chosen loop itself) is always legal; depth d > 0 is legal when the d-th
// singly-nested inner loop's own dependence verdict is parallelizable —
// running it parallel with the outer levels sequential is exactly the plan
// the parallelizer would have chosen had the outer loop been rejected, so
// no new legality argument is needed. This is the tuner's interchange
// knob: it moves the partitioned dimension inward, trading spawn overhead
// for a different balance profile.
func InterchangeDepths(res *Result, li *LoopInfo, maxDepth int) []int {
	depths := []int{0}
	for d := 1; d <= maxDepth; d++ {
		inner := LoopAtDepth(res, li, d)
		if inner == nil || !inner.Dep.Parallelizable {
			break
		}
		depths = append(depths, d)
	}
	return depths
}
