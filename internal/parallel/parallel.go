// Package parallel is the automatic parallelizer driver of §2.4: it runs the
// interprocedural analyses over a whole program and parallelizes the
// outermost loops whenever possible, recording for every loop why it did or
// did not parallelize — the raw material the SUIF Explorer presents to the
// programmer.
package parallel

import (
	"runtime"

	"suifx/internal/depend"
	"suifx/internal/fanout"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/region"
	"suifx/internal/summary"
)

// AssertSet carries the user assertions for one loop (§2.8), keyed by the
// names the loop's procedure declares, as the user types them.
type AssertSet struct {
	Private     map[string]bool
	Independent map[string]bool
}

// resolve keys each asserted name on the storage the loop's procedure
// declares under it, its representative, as depend matches assertions. A
// name the procedure does not declare asserts nothing.
func resolve(p *ir.Proc, names map[string]bool) map[*ir.Symbol]bool {
	out := map[*ir.Symbol]bool{}
	for name, on := range names {
		if sym := p.Lookup(name); sym != nil {
			out[sym.Canon()] = on
		}
	}
	return out
}

// Config controls a parallelization run.
type Config struct {
	// UseReductions enables reduction recognition and transformation.
	UseReductions bool
	// DeadAtExit is the optional array liveness oracle (Chapter 5). The
	// dependence tests of different loops call it concurrently, so it must
	// be safe for concurrent use; nil means scalar liveness.
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
// A nil cfg.DeadAtExit runs liveness.ScalarOracle here, the Full pass
// restricted to what a scalar question reads; a caller in a loop passes an
// oracle it kept instead. The loops to re-test are tested on the calling
// goroutine plus up to GOMAXPROCS-1 helpers (fanout.Each), and every verdict
// lands at its loop's index, so the result does not depend on scheduling.
// Loops of one procedure only (an assertion's re-test, tens of
// microseconds) stay on the caller: waking a helper costs more.
func ReparallelizeWith(prev *Result, sum *summary.Analysis, cfg Config, dirty func(proc string) bool) *Result {
	if cfg.DeadAtExit == nil {
		cfg.DeadAtExit = liveness.ScalarOracle(sum)
	}
	regions := sum.Reg.LoopRegions()
	res := &Result{
		Prog:    sum.Prog,
		Sum:     sum,
		Cfg:     cfg,
		Loops:   make(map[*region.Region]*LoopInfo, len(regions)),
		Ordered: make([]*LoopInfo, len(regions)),
	}
	var retest []*LoopInfo
	workers := 1 // until the loops to re-test span two procedures
	for i, r := range regions {
		li := &LoopInfo{Region: r}
		if prev != nil && dirty != nil && prev.Loops[r] != nil && !dirty(r.Proc.Name) {
			li.Dep = prev.Loops[r].Dep
		} else {
			if len(retest) > 0 && retest[0].Region.Proc != r.Proc {
				workers = runtime.GOMAXPROCS(0)
			}
			retest = append(retest, li)
		}
		res.Loops[r] = li
		res.Ordered[i] = li
	}
	fanout.Each(workers, len(retest), func(i int) {
		li := retest[i]
		opts := depend.Options{
			UseReductions: cfg.UseReductions,
			DeadAtExit:    cfg.DeadAtExit,
		}
		if as, ok := cfg.Assertions[li.ID()]; ok {
			opts.AssertPrivate = resolve(li.Region.Proc, as.Private)
			opts.AssertIndependent = resolve(li.Region.Proc, as.Independent)
		}
		li.Dep = depend.AnalyzeLoop(sum, li.Region, opts)
	})
	res.chooseOutermost()
	return res
}

// chooseOutermost picks, top-down over the call graph and the loop nests,
// the outermost parallelizable loops, and marks everything dynamically
// nested inside them.
func (res *Result) chooseOutermost() {
	c := chooser{res: res, parallelCtx: map[string]bool{}}
	for _, p := range res.Prog.TopDownOrder() {
		top := res.Sum.Reg.ProcTop[p.Name]
		c.chooseIn(top, c.parallelCtx[p.Name])
	}
}

// chooser is the state of one chooseOutermost: the procedures reached from
// inside a chosen loop so far.
type chooser struct {
	res         *Result
	parallelCtx map[string]bool
}

func (c *chooser) chooseIn(r *region.Region, underParallel bool) {
	for _, l := range r.Children {
		if l.Kind != region.LoopRegion {
			continue
		}
		li := c.res.Loops[l]
		li.UnderParallel = underParallel
		if !underParallel && li.Dep.Parallelizable {
			li.Chosen = true
			for _, p := range c.res.Prog.Reachable(l.Loop.Body) {
				c.parallelCtx[p.Name] = true
			}
			c.chooseIn(l.Body(), true)
			continue
		}
		c.chooseIn(l.Body(), underParallel)
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

// VarVerdict is one variable's classification inside a loop.
type VarVerdict struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Reduction   string `json:"reduction,omitempty"`
	ByAssertion bool   `json:"by_assertion,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// LoopVerdict is one loop's parallelization verdict: the record the
// /v1/analyze body carries and every rendering of a verdict reads.
type LoopVerdict struct {
	ID             string       `json:"id"`
	Lines          [2]int       `json:"lines"`
	Parallelizable bool         `json:"parallelizable"`
	Chosen         bool         `json:"chosen"`
	UnderParallel  bool         `json:"under_parallel,omitempty"`
	Vars           []VarVerdict `json:"vars,omitempty"`
}

// Verdicts builds the record of every loop, in Ordered order. A loop's
// variables leave out the read-only ones and its own DO index, which no
// clause of a parallel loop needs to name, and go by the names the loop's
// procedure declares (ir.Proc.Own).
func (res *Result) Verdicts() []LoopVerdict {
	var out []LoopVerdict
	for _, li := range res.Ordered {
		lo, hi := li.Region.Lines()
		lv := LoopVerdict{
			ID:             li.ID(),
			Lines:          [2]int{lo, hi},
			Parallelizable: li.Dep.Parallelizable,
			Chosen:         li.Chosen,
			UnderParallel:  li.UnderParallel,
		}
		for _, vr := range li.Dep.Vars {
			if vr.Class == depend.ClassReadOnly || vr.Class == depend.ClassIndex {
				continue
			}
			lv.Vars = append(lv.Vars, VarVerdict{
				Name:        li.Region.Proc.Own(vr.Sym).Name,
				Class:       vr.Class.String(),
				Reduction:   vr.RedOp,
				ByAssertion: vr.ByAssertion,
				Reason:      vr.Reason,
			})
		}
		out = append(out, lv)
	}
	return out
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
