// Package parallel is the automatic parallelizer driver of §2.4: it runs the
// interprocedural analyses over a whole program and parallelizes the
// outermost loops whenever possible, recording for every loop why it did or
// did not parallelize — the raw material the SUIF Explorer presents to the
// programmer.
package parallel

import (
	"sort"

	"suifx/internal/depend"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/region"
	"suifx/internal/summary"
)

// AssertSet carries the user assertions for one loop (§2.8), keyed by
// variable name.
type AssertSet struct {
	Private     map[string]bool
	Independent map[string]bool
}

// Config controls a parallelization run.
type Config struct {
	// UseReductions enables reduction recognition and transformation.
	UseReductions bool
	// DeadAtExit is the optional array liveness oracle (Chapter 5).
	DeadAtExit func(r *region.Region, sym *ir.Symbol) bool
	// Assertions maps loop IDs ("PROC/LABEL") to user assertions.
	Assertions map[string]AssertSet
}

// LoopInfo is the per-loop outcome.
type LoopInfo struct {
	Region *region.Region
	Dep    *depend.LoopResult
	// Chosen marks loops emitted as parallel (outermost parallelizable).
	Chosen bool
	// UnderParallel marks loops that execute inside a chosen parallel loop
	// (statically nested or reached through a call).
	UnderParallel bool
}

// ID returns the paper-style loop identifier.
func (li *LoopInfo) ID() string { return li.Region.ID() }

// Result is a whole-program parallelization outcome.
type Result struct {
	Prog  *ir.Program
	Sum   *summary.Analysis
	Cfg   Config
	Loops map[*region.Region]*LoopInfo
	// Ordered lists every loop region in deterministic order.
	Ordered []*LoopInfo
}

// Parallelize analyzes prog and chooses parallel loops.
func Parallelize(prog *ir.Program, cfg Config) *Result {
	return ParallelizeWith(summary.Analyze(prog), cfg)
}

// ParallelizeWith reuses an existing array data-flow analysis.
func ParallelizeWith(sum *summary.Analysis, cfg Config) *Result {
	return ReparallelizeWith(nil, sum, cfg, nil)
}

// ReparallelizeWith is the incremental variant of ParallelizeWith for the
// interactive loop: dependence analysis is re-run only for loops in
// procedures where dirty reports true, and every other loop reuses prev's
// dependence verdict. A loop's verdict is depend.AnalyzeLoop(sum, r, opts),
// a pure function whose opts are cfg.UseReductions, cfg.DeadAtExit and
// cfg.Assertions[r.ID()], so the caller's dirty must cover every procedure
// whose summaries changed since prev (driver.Incremental's recomputed set),
// whose loops' exit-liveness facts changed, or that holds a loop whose
// AssertSet changed — nothing else can move a verdict. Loop choice
// (Chosen/UnderParallel) is global and cheap, so it is always recomputed
// from scratch. prev == nil or dirty == nil is a full run.
//
// A nil cfg.DeadAtExit runs whole-program liveness here for its scalar
// facts; a caller in a loop passes an oracle it kept instead.
func ReparallelizeWith(prev *Result, sum *summary.Analysis, cfg Config, dirty func(proc string) bool) *Result {
	if cfg.DeadAtExit == nil {
		cfg.DeadAtExit = liveness.Analyze(sum, liveness.Full).ScalarOracle()
	}
	res := &Result{
		Prog:  sum.Prog,
		Sum:   sum,
		Cfg:   cfg,
		Loops: map[*region.Region]*LoopInfo{},
	}
	for _, r := range sum.Reg.LoopRegions() {
		li := &LoopInfo{Region: r}
		if prev != nil && dirty != nil && prev.Loops[r] != nil && !dirty(r.Proc.Name) {
			li.Dep = prev.Loops[r].Dep
		} else {
			opts := depend.Options{
				UseReductions: cfg.UseReductions,
				DeadAtExit:    cfg.DeadAtExit,
			}
			if as, ok := cfg.Assertions[r.ID()]; ok {
				opts.AssertPrivate = as.Private
				opts.AssertIndependent = as.Independent
			}
			li.Dep = depend.AnalyzeLoop(sum, r, opts)
		}
		res.Loops[r] = li
		res.Ordered = append(res.Ordered, li)
	}
	res.chooseOutermost()
	return res
}

// chooseOutermost picks, top-down over the call graph and the loop nests,
// the outermost parallelizable loops, and marks everything dynamically
// nested inside them.
func (res *Result) chooseOutermost() {
	parallelCtx := map[string]bool{} // procs reached from inside parallel loops
	order, _ := res.Prog.TopDownOrder()
	for _, p := range order {
		top := res.Sum.Reg.ProcTop[p.Name]
		res.chooseIn(top, parallelCtx[p.Name], parallelCtx)
	}
}

func (res *Result) chooseIn(r *region.Region, underParallel bool, parallelCtx map[string]bool) {
	for _, c := range r.Children {
		if c.Kind != region.LoopRegion {
			continue
		}
		li := res.Loops[c]
		li.UnderParallel = underParallel
		if !underParallel && li.Dep.Parallelizable {
			li.Chosen = true
			res.markCalleesParallel(c, parallelCtx)
			res.chooseIn(c.Body(), true, parallelCtx)
			continue
		}
		res.chooseIn(c.Body(), underParallel, parallelCtx)
	}
}

// markCalleesParallel records every procedure transitively reachable from
// inside a chosen parallel loop.
func (res *Result) markCalleesParallel(r *region.Region, parallelCtx map[string]bool) {
	var visit func(name string)
	visit = func(name string) {
		if parallelCtx[name] {
			return
		}
		parallelCtx[name] = true
		for _, callee := range res.Prog.CallGraph()[name] {
			visit(callee)
		}
	}
	for _, c := range r.AllCallSites() {
		if res.Prog.ByName[c.Name] != nil {
			visit(c.Name)
		}
	}
}

// ParallelLoops returns the chosen parallel loops in deterministic order.
func (res *Result) ParallelLoops() []*LoopInfo {
	var out []*LoopInfo
	for _, li := range res.Ordered {
		if li.Chosen {
			out = append(out, li)
		}
	}
	return out
}

// SequentialLoops returns loops that are not parallelizable and not nested
// under a chosen parallel loop — the Explorer's worklist candidates.
func (res *Result) SequentialLoops() []*LoopInfo {
	var out []*LoopInfo
	for _, li := range res.Ordered {
		if !li.Chosen && !li.UnderParallel && !li.Dep.Parallelizable {
			out = append(out, li)
		}
	}
	return out
}

// LoopByID finds a loop by its "PROC/LABEL" identifier.
func (res *Result) LoopByID(id string) *LoopInfo {
	for _, li := range res.Ordered {
		if li.ID() == id {
			return li
		}
	}
	return nil
}

// Stats summarizes counts the evaluation tables report.
type Stats struct {
	TotalLoops      int
	ParallelizableN int
	ChosenN         int
	SequentialN     int
	WithReductionN  int
}

// Stats computes whole-program counts.
func (res *Result) Stats() Stats {
	var s Stats
	s.TotalLoops = len(res.Ordered)
	for _, li := range res.Ordered {
		if li.Dep.Parallelizable {
			s.ParallelizableN++
			if li.Dep.NeedsReduction {
				s.WithReductionN++
			}
		} else {
			s.SequentialN++
		}
		if li.Chosen {
			s.ChosenN++
		}
	}
	return s
}

// VarCounts tallies, across the given loops, how many variables fall into
// each class — the Fig 4-9 style breakdown. Arrays and scalars are counted
// separately.
func VarCounts(loops []*LoopInfo) map[string]int {
	out := map[string]int{}
	for _, li := range loops {
		for _, vr := range li.Dep.Vars {
			kind := "scalar"
			if vr.Sym.IsArray() {
				kind = "array"
			}
			key := vr.Class.String() + " " + kind
			if vr.ByAssertion {
				key = "user " + key
			}
			out[key]++
		}
	}
	return out
}

// SortedKeys returns map keys sorted, for deterministic table output.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
