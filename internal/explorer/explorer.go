// Package explorer is the SUIF Explorer itself (Chapter 2): it drives the
// whole pipeline — parallelize, instrument and profile an execution, run the
// dynamic dependence analyzer — and hosts the Parallelization Guru (§2.6)
// that ranks target loops by coverage and granularity, plus the assertion
// checkers (§2.8) that vet user claims against static and dynamic
// information before re-parallelizing.
package explorer

import (
	"fmt"
	"sort"

	"suifx/internal/depend"
	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/issa"
	"suifx/internal/liveness"
	"suifx/internal/machine"
	"suifx/internal/parallel"
	"suifx/internal/summary"
)

// Options configure a session.
type Options struct {
	Model *machine.Model
	// UseReductions and UseLiveness select the compiler configuration.
	UseReductions bool
	UseLiveness   bool
	// CoverageCutoff and GranularityCutoffMs select "important" loops
	// (§4.3.2's 2% and 0.05 ms defaults).
	CoverageCutoff      float64
	GranularityCutoffMs float64
	// MaxOps bounds the profiling run.
	MaxOps int64
	// Workers bounds the analysis worker pool (0 = GOMAXPROCS).
	Workers int
}

// DefaultOptions mirror the paper's setup.
func DefaultOptions() Options {
	return Options{
		Model:               machine.AlphaServer8400(),
		UseReductions:       true,
		UseLiveness:         true,
		CoverageCutoff:      0.02,
		GranularityCutoffMs: 0.05,
	}
}

// Session is one Explorer run over a program. Its pipeline is split into
// resumable steps — Analyze (static pipeline over the incremental driver),
// Profile (one instrumented execution) — so a hosting layer (the suifxd
// session subsystem) can drive, observe, and re-enter each step; NewSession
// runs them all for the classic one-shot construction.
type Session struct {
	Prog *ir.Program
	Opts Options

	// Inc owns the summaries. A source-level change invalidates procedures
	// there (its Invalidate, then Reanalyze); assertions never do — no
	// summary reads one.
	Inc *driver.Incremental
	// LastInc reports what the most recent (re-)analysis recomputed.
	LastInc driver.IncStats

	Sum *summary.Analysis
	// Live is the whole-program liveness over Sum, recomputed only when Inc
	// recomputed a summary. Every configuration keeps it: UseLiveness asks
	// it about arrays too, the base configuration about scalars only.
	Live *liveness.Info
	Par  *parallel.Result
	Prof *exec.Profiler
	Dyn  *exec.DynDep
	in   *exec.Interp

	Assertions map[string]parallel.AssertSet
	// Log records the Guru's narration.
	Log []string

	graph *issa.Graph // lazy interprocedural SSA graph for slices and Why
}

// NewSession analyzes and profiles the program: NewUnstarted + Start.
func NewSession(prog *ir.Program, opts Options) (*Session, error) {
	s := NewUnstarted(driver.NewIncremental(prog, driver.Options{Workers: opts.Workers}), opts)
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewUnstarted builds a session around an existing incremental analysis
// (possibly branched off a cached whole-program result) without running any
// step yet.
func NewUnstarted(inc *driver.Incremental, opts Options) *Session {
	if opts.Model == nil {
		opts.Model = machine.AlphaServer8400()
	}
	return &Session{
		Prog:       inc.Prog(),
		Opts:       opts,
		Inc:        inc,
		Assertions: map[string]parallel.AssertSet{},
	}
}

// Start runs the remaining pipeline steps in order.
func (s *Session) Start() error {
	if err := s.Analyze(); err != nil {
		return err
	}
	return s.Profile()
}

// Analyze is the static-pipeline step: it brings the incremental analysis
// up to date and (re-)parallelizes. On the first call everything dirty is
// computed; afterwards it is the re-analysis step after a source-level
// invalidation.
func (s *Session) Analyze() error { return s.Reanalyze() }

// Reanalyze re-runs the static pipeline after an Invalidate on Inc: only
// procedures the incremental driver marked dirty are re-summarized, liveness
// is recomputed only if some procedure was, and only loops in those
// procedures re-run dependence analysis; everything else is reused. LastInc
// records the recompute/reuse split.
func (s *Session) Reanalyze() error {
	s.reparallelize("")
	return nil
}

// reparallelize brings summaries, liveness and loop verdicts up to date.
// assertedProc, when set, names the procedure holding a loop whose
// assertions just changed: its loops are re-tested even though no summary
// moved.
func (s *Session) reparallelize(assertedProc string) {
	s.Sum, s.LastInc = s.Inc.Analyze()
	if s.Live == nil || s.LastInc.Recomputed > 0 {
		s.Live = liveness.Analyze(s.Sum, liveness.Full)
	}
	cfg := parallel.Config{
		UseReductions: s.Opts.UseReductions,
		DeadAtExit:    s.Live.ScalarOracle(),
		Assertions:    s.Assertions,
	}
	if s.Opts.UseLiveness {
		cfg.DeadAtExit = s.Live.Oracle()
	}
	dirty := s.LastInc.RecomputedSet()
	s.Par = parallel.ReparallelizeWith(s.Par, s.Sum, cfg, func(proc string) bool {
		return dirty[proc] || proc == assertedProc
	})
}

// Profile is the dynamic step: it runs the program once, sequentially, with
// the Loop Profile Analyzer and the Dynamic Dependence Analyzer attached
// (§2.3.1). It requires Analyze and runs at most once per session — the
// profile is input-bound, not assertion-bound, so re-analysis never
// invalidates it.
func (s *Session) Profile() error {
	if s.Prof != nil {
		return nil
	}
	if s.Par == nil {
		return fmt.Errorf("explorer: Profile requires Analyze first")
	}
	in := exec.New(s.Prog)
	in.MaxOps = s.Opts.MaxOps
	prof := exec.NewProfiler(in)
	dyn := exec.NewDynDep(in)
	// The analyzer ignores variables the compiler already resolved
	// (inductions and reductions, §2.5.2).
	dyn.IgnoreVar = s.ignoreVarFn(in)
	if err := in.Run(); err != nil {
		return fmt.Errorf("explorer: profiling run failed: %w", err)
	}
	s.in, s.Prof, s.Dyn = in, prof, dyn
	return nil
}

// Graph returns the session's interprocedural SSA graph for slicing, built
// lazily and cached — the program is immutable for the session's lifetime.
func (s *Session) Graph() *issa.Graph {
	if s.graph == nil {
		s.graph = issa.Build(s.Prog)
	}
	return s.graph
}

// ignoreVarFn suppresses dynamic dependences on addresses belonging to
// variables classified as index or reduction for the loop.
func (s *Session) ignoreVarFn(in *exec.Interp) func(l *ir.DoLoop, addr int64) bool {
	type rng struct{ lo, hi int64 }
	ignore := map[*ir.DoLoop][]rng{}
	for _, li := range s.Par.Ordered {
		proc := li.Region.Proc
		for _, vr := range li.Dep.Vars {
			if vr.Class != depend.ClassIndex && vr.Class != depend.ClassReduction {
				continue
			}
			if lo, hi, ok := in.SymRange(proc.Name, proc.Own(vr.Sym).Name); ok {
				ignore[li.Region.Loop] = append(ignore[li.Region.Loop], rng{lo, hi})
			}
		}
	}
	return func(l *ir.DoLoop, addr int64) bool {
		for _, r := range ignore[l] {
			if addr >= r.lo && addr <= r.hi {
				return true
			}
		}
		return false
	}
}

// Target is one Guru worklist entry (§2.6): an important sequential loop.
type Target struct {
	Loop          *parallel.LoopInfo
	Profile       *exec.LoopProfile
	CoveragePct   float64
	GranularityMs float64
	DynDeps       int64
	StaticDeps    int
	Important     bool
}

// ID returns the loop identifier.
func (t *Target) ID() string { return t.Loop.ID() }

// Targets builds the Guru's ranked list: sequential loops with no I/O, not
// dynamically nested under a parallel loop, sorted by decreasing execution
// time; each annotated with dynamic and static dependence counts.
func (s *Session) Targets() []Target {
	total := float64(s.Prof.TotalOps())
	var out []Target
	for _, li := range s.Par.SequentialLoops() {
		if li.Dep.HasIO {
			continue
		}
		lp := s.Prof.Of(li.Region.Loop)
		if lp == nil {
			continue // never executed
		}
		t := Target{
			Loop:       li,
			Profile:    lp,
			DynDeps:    s.Dyn.Carried(li.Region.Loop),
			StaticDeps: len(li.Dep.Blocking),
		}
		if total > 0 {
			t.CoveragePct = float64(lp.TotalOps) / total * 100
		}
		t.GranularityMs = s.Opts.Model.OpsToMs(lp.OpsPerInvocation())
		t.Important = t.CoveragePct >= s.Opts.CoverageCutoff*100 &&
			t.GranularityMs >= s.Opts.GranularityCutoffMs
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Profile.TotalOps != out[j].Profile.TotalOps {
			return out[i].Profile.TotalOps > out[j].Profile.TotalOps
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// CoverageGranularity reports the automatically-parallelized coverage and
// granularity metrics the Guru displays (§2.6).
func (s *Session) CoverageGranularity() (coverage float64, granularityMs float64) {
	w := s.Workload()
	return s.Opts.Model.Coverage(w), s.Opts.Model.GranularityMs(w)
}

// ---- assertion checking (§2.8) ----

// Rejection codes: why the assertion checker refused a user claim.
const (
	RejectUnknownLoop  = "unknown-loop"
	RejectUnknownVar   = "unknown-variable"
	RejectContradicted = "contradicted"
)

// RejectError is a structured assertion rejection: the checker refuses the
// claim and says why, instead of silently dropping it. Code is one of the
// Reject* constants; Reason is the human-readable explanation.
type RejectError struct {
	Code   string
	Reason string
}

func (e *RejectError) Error() string { return e.Reason }

func rejectf(code, format string, args ...interface{}) *RejectError {
	return &RejectError{Code: code, Reason: fmt.Sprintf(format, args...)}
}

// AssertPrivate records "variable is privatizable in loop" after checking
// consistency. If the variable is a common-block array also accessed by
// procedures called from the loop, the assertion is extended automatically
// with a warning, as the paper describes. An accepted assertion re-tests the
// loops of the asserted loop's procedure and re-ranks; it invalidates no
// summary and no liveness fact, because neither reads assertions.
func (s *Session) AssertPrivate(loopID, varName string) ([]string, error) {
	li := s.Par.LoopByID(loopID)
	if li == nil {
		return nil, rejectf(RejectUnknownLoop, "explorer: unknown loop %s", loopID)
	}
	var warnings []string
	proc := li.Region.Proc
	sym := proc.Lookup(varName)
	if sym == nil {
		return nil, rejectf(RejectUnknownVar, "explorer: no variable %s in %s", varName, proc.Name)
	}
	// Cross-procedure consistency: a privatized common array must be
	// privatized in every called procedure that accesses it.
	if sym.Common != "" {
		for _, c := range li.Region.AllCallSites() {
			callee := s.Prog.ByName[c.Name]
			if other := callee.Lookup(varName); other != nil && other.Common == sym.Common {
				warnings = append(warnings,
					fmt.Sprintf("privatizing /%s/ %s for callee %s automatically", sym.Common, varName, callee.Name))
			}
		}
	}
	as := s.Assertions[loopID]
	if as.Private == nil {
		as.Private = map[string]bool{}
	}
	if as.Independent == nil {
		as.Independent = map[string]bool{}
	}
	as.Private[varName] = true
	s.Assertions[loopID] = as
	s.logf("assert private %s in %s", varName, loopID)
	s.reparallelize(proc.Name)
	return warnings, nil
}

// AssertIndependent records "accesses to variable are independent in loop"
// after checking it against the Dynamic Dependence Analyzer: if a true
// dependence was observed for the profiled input, the assertion is refuted
// with a RejectError rather than silently dropped, and an assertion naming
// a variable the procedure does not declare is likewise rejected.
func (s *Session) AssertIndependent(loopID, varName string) error {
	li := s.Par.LoopByID(loopID)
	if li == nil {
		return rejectf(RejectUnknownLoop, "explorer: unknown loop %s", loopID)
	}
	proc := li.Region.Proc
	if proc.Lookup(varName) == nil {
		return rejectf(RejectUnknownVar, "explorer: no variable %s in %s", varName, proc.Name)
	}
	if lo, hi, ok := s.in.SymRange(proc.Name, varName); ok {
		if n := s.Dyn.CarriedInRange(li.Region.Loop, lo, hi); n > 0 {
			return rejectf(RejectContradicted,
				"explorer: assertion contradicted: %d dynamic flow dependences observed on %s in %s",
				n, varName, loopID)
		}
	}
	as := s.Assertions[loopID]
	if as.Private == nil {
		as.Private = map[string]bool{}
	}
	if as.Independent == nil {
		as.Independent = map[string]bool{}
	}
	as.Independent[varName] = true
	s.Assertions[loopID] = as
	s.logf("assert independent %s in %s", varName, loopID)
	s.reparallelize(proc.Name)
	return nil
}

func (s *Session) logf(format string, args ...interface{}) {
	s.Log = append(s.Log, fmt.Sprintf(format, args...))
}

// Workload converts the session's measurements into a machine-model
// workload for speedup prediction.
func (s *Session) Workload() machine.Workload { return WorkloadOf(s.Par, s.Prof) }

// WorkloadOf puts one parallelization of a profiled program in the machine
// model's terms. It is a function of the pair, not of a session, so that a
// compiler configuration no session can be in (Fig 5-8's weaker liveness
// oracles) is costed by the same rule over the session's own profile — a
// profile is a property of the program and its input, not of the verdicts.
func WorkloadOf(par *parallel.Result, prof *exec.Profiler) machine.Workload {
	var w machine.Workload
	// Only chosen parallel loops appear: the parallelizer guarantees they
	// are dynamically disjoint, so their times partition the run against
	// the serial remainder.
	var loopOps int64
	for _, li := range par.Ordered {
		if !li.Chosen {
			continue
		}
		lp := prof.Of(li.Region.Loop)
		if lp == nil {
			continue // never executed
		}
		loopOps += lp.TotalOps
		lw := machine.LoopWork{
			ID:          li.ID(),
			Invocations: lp.Invocations,
			Iterations:  lp.Iterations,
			TotalOps:    lp.TotalOps,
			Parallel:    true,
		}
		for _, vr := range li.Dep.Vars {
			switch vr.Class {
			case depend.ClassReduction:
				lw.ReductionElems += vr.Sym.NElems()
				lw.StaggeredFinalize = true
			case depend.ClassPrivate:
				lw.PrivateElems += vr.Sym.NElems()
				if vr.NeedsFinalization {
					lw.FinalizeElems += vr.Sym.NElems()
				}
			}
		}
		// The working set is every array the loop's summary touches.
		if rs := par.Sum.RegionSum[li.Region]; rs != nil {
			for sym := range rs.Arrays {
				if sym.IsArray() {
					lw.FootprintElems += sym.NElems()
				}
			}
		}
		w.Loops = append(w.Loops, lw)
	}
	w.SerialOps = prof.TotalOps() - loopOps
	if w.SerialOps < 0 {
		w.SerialOps = 0
	}
	return w
}
