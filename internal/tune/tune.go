// Package tune implements the auto-tuning parallelization search: for every
// approved parallelizable loop nest it enumerates strategy variants — worker
// count × interchange depth, the two dimensions that have ever moved a
// verdict (DESIGN.md "Plan search") — executes candidate plans on the
// bytecode engine under virtual time, scores each variant with the measured
// critical-path profile combined with the machine cost model, and reports
// the winning plan per nest with a searched/pruned/score audit trail.
//
// SUIF Explorer stops at one approved plan per loop, always as wide as the
// machine. Because the engine's clock is virtual (operation counts, not
// wall time) every run is deterministic, so the whole sweep is reproducible
// on one CI core and a report for a fixed (program, config) is
// byte-identical across machines.
package tune

import (
	"context"
	"fmt"
	"sort"

	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/machine"
	"suifx/internal/parallel"
)

// Config is the search space and budget for one tuning run. The zero value
// selects the default space: workers {1,2,4,8}, interchange depth 0,
// unlimited runs, the AlphaServer 8400 cost model.
type Config struct {
	// Workers are the candidate per-loop worker counts. Order matters: it
	// is the tie-break preference and the audit-trail enumeration order.
	Workers []int
	// MaxDepth bounds the interchange knob: depth d parallelizes the d-th
	// singly-nested inner loop where internal/parallel proves it legal.
	MaxDepth int
	// MaxRuns budgets the search: at most MaxRuns plan executions
	// (0 = unlimited). The default plan always runs first, so even an
	// exhausted budget yields a usable (if unimproved) report, flagged
	// BudgetExhausted with the unexecuted variants counted as pruned.
	MaxRuns int
	// DefaultWorkers is the baseline the report's speedups compare against:
	// parallel.BuildPlan(res, DefaultWorkers). Default 4.
	DefaultWorkers int
	// MaxOps bounds each execution's virtual time (0 = unlimited).
	MaxOps int64
	// Model is the cost model scoring overhead terms (default AlphaServer).
	Model *machine.Model
}

// maxWorkerCount bounds a single candidate worker count; wider requests are
// rejected rather than silently clamped, so a fuzzer-shaped config cannot
// allocate absurd per-worker storage banks.
const maxWorkerCount = 64

// maxSearchDepth bounds the interchange knob.
const maxSearchDepth = 8

func (c Config) withDefaults() Config {
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if c.DefaultWorkers == 0 {
		c.DefaultWorkers = 4
	}
	if c.Model == nil {
		c.Model = machine.AlphaServer8400()
	}
	return c
}

// Validate rejects configs outside the searchable space. Zero-valued knobs
// are normalized to their defaults first, so a partially-filled config (an
// HTTP request body, say) validates the same way Search will see it. It is
// applied by Search and exercised directly by FuzzTuneConfig.
func (c Config) Validate() error {
	c = c.withDefaults()
	seen := map[int]bool{}
	for _, w := range c.Workers {
		if w < 1 || w > maxWorkerCount {
			return fmt.Errorf("tune: worker count %d out of range [1,%d]", w, maxWorkerCount)
		}
		if seen[w] {
			return fmt.Errorf("tune: duplicate worker count %d", w)
		}
		seen[w] = true
	}
	if c.MaxDepth < 0 || c.MaxDepth > maxSearchDepth {
		return fmt.Errorf("tune: max depth %d out of range [0,%d]", c.MaxDepth, maxSearchDepth)
	}
	if c.MaxRuns < 0 {
		return fmt.Errorf("tune: negative run budget %d", c.MaxRuns)
	}
	if c.DefaultWorkers < 1 || c.DefaultWorkers > maxWorkerCount {
		return fmt.Errorf("tune: default worker count %d out of range [1,%d]", c.DefaultWorkers, maxWorkerCount)
	}
	if c.MaxOps < 0 {
		return fmt.Errorf("tune: negative op budget %d", c.MaxOps)
	}
	if c.Model != nil && c.Model.Procs < 1 {
		return fmt.Errorf("tune: machine model %q has %d processors", c.Model.Name, c.Model.Procs)
	}
	return nil
}

// Variant is one point of the per-nest search space. Every variant runs
// the §4.5 even dispatcher under parallel.DefaultPlanOptions.
type Variant struct {
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
}

// Score is a variant plus its measured virtual-time profile and modeled
// cost. CritOps/WorkerOps/Invocations come from the §4.5 dispatcher's
// stats for the planned loop of the variant's run; Cycles folds
// them through the machine model (bus contention, spawn, reduction
// init/finalize, private init/write-back). Lower Cycles wins.
type Score struct {
	Variant
	Invocations int64   `json:"invocations"`
	WorkerOps   int64   `json:"worker_ops"`
	CritOps     int64   `json:"crit_ops"`
	Cycles      float64 `json:"cycles"`
}

// LoopReport is one nest's audit trail: every variant actually scored (in
// enumeration order), how many were pruned (illegal depth, worker count
// beyond the machine, W=1 at depth > 0, or budget cuts), and the
// chosen-vs-default verdict.
type LoopReport struct {
	ID     string `json:"id"`
	Line   int    `json:"line"`
	Index  string `json:"index"`
	SeqOps int64  `json:"seq_ops"`
	// Depths lists the legal interchange depths (always starts with 0).
	Depths   []int   `json:"depths"`
	Searched []Score `json:"searched"`
	Pruned   int     `json:"pruned"`
	Default  Score   `json:"default"`
	Chosen   Score   `json:"chosen"`
	// Speedup is Default.Cycles / Chosen.Cycles. The default variant is in
	// the candidate set, so this is ≥ 1 by construction.
	Speedup float64 `json:"speedup"`
}

// Report is a whole-program tuning verdict. It contains no timestamps or
// host-dependent fields: repeated searches over the same (program, config)
// marshal byte-identically.
type Report struct {
	Machine        string `json:"machine"`
	DefaultWorkers int    `json:"default_workers"`
	// SeqOps is the sequential baseline's total virtual time.
	SeqOps int64 `json:"seq_ops"`
	// Runs counts plan executions (the profiled sequential baseline is not
	// a plan run and is excluded; W=1 variants are scored from the baseline
	// profile without a run of their own).
	Runs            int  `json:"runs"`
	Searched        int  `json:"searched"`
	Pruned          int  `json:"pruned"`
	BudgetExhausted bool `json:"budget_exhausted"`
	// DefaultCycles/ChosenCycles are modeled whole-program costs: serial
	// ops outside the tuned nests plus each nest under the default/chosen
	// variant. Speedup = DefaultCycles/ChosenCycles (≥ 1 by construction).
	DefaultCycles float64      `json:"default_cycles"`
	ChosenCycles  float64      `json:"chosen_cycles"`
	Speedup       float64      `json:"speedup"`
	Loops         []LoopReport `json:"loops"`
}

// MinLoopSpeedup returns the smallest per-nest speedup (1 when no nests).
func (r *Report) MinLoopSpeedup() float64 {
	min := 1.0
	for i, lr := range r.Loops {
		if i == 0 || lr.Speedup < min {
			min = lr.Speedup
		}
	}
	return min
}

// nestElems sizes one planned loop's per-invocation transformation work for
// the cost model: reduction region, private copies, finalized privates.
type nestElems struct {
	red, priv, fin int64
}

func elemsOf(li *parallel.LoopInfo) nestElems {
	var e nestElems
	for _, vr := range li.Dep.Vars {
		switch vr.Class.String() {
		case "reduction":
			e.red += vr.Sym.NElems()
		case "private":
			e.priv += vr.Sym.NElems()
			if vr.NeedsFinalization {
				e.fin += vr.Sym.NElems()
			}
		}
	}
	return e
}

// nest is one chosen loop's search state.
type nest struct {
	li     *parallel.LoopInfo
	seqOps int64 // profiled sequential virtual time of the whole nest
	seqInv int64
	depths []int                      // legal interchange depths
	at     map[int]*parallel.LoopInfo // planned loop per legal depth
	elems  map[int]nestElems
	// cands holds one slot per enumerated variant, in enumeration order;
	// nil Score = not yet executed (counted pruned if the budget cuts it).
	cands  []*candidate
	pruned int
	deflt  Score
}

type candidate struct {
	v     Variant
	score *Score
}

func (n *nest) legal(d int) bool {
	_, ok := n.at[d]
	return ok
}

// runKey identifies one plan execution: every nest variant sharing the key
// is scored from the same run (nests are independent, so one run serves one
// variant of each nest).
type runKey struct {
	workers int
	depth   int
}

type runJob struct {
	key  runKey
	refs []runRef // candidate slots this run scores
}

type runRef struct {
	nest *nest
	cand *candidate
}

// Search tunes every approved parallel nest of res. It returns a partial
// report flagged BudgetExhausted when MaxRuns cuts the sweep short, and an
// error (with no report) on cancellation, invalid config, or engine failure.
// For a fixed (program, config) the search — run order, scores, report
// bytes — is deterministic.
func Search(ctx context.Context, res *parallel.Result, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		counters.invalid.Add(1)
		return nil, err
	}
	counters.searches.Add(1)
	if err := ctx.Err(); err != nil {
		counters.cancelled.Add(1)
		return nil, err
	}

	// Sequential baseline with the loop profiler: per-nest virtual time
	// feeds both the W=1 scores and the serial remainder of interchange
	// variants (outer levels of a depth-d plan run sequentially).
	seqIn := exec.New(res.Prog)
	seqIn.MaxOps = cfg.MaxOps
	prof := exec.NewProfiler(seqIn)
	if err := seqIn.Run(); err != nil {
		counters.failed.Add(1)
		return nil, fmt.Errorf("tune: sequential baseline: %w", err)
	}
	counters.runs.Add(1)

	nests := collectNests(res, prof, cfg)
	jobs := enumerate(nests, cfg)

	rep := &Report{
		Machine:        cfg.Model.Name,
		DefaultWorkers: cfg.DefaultWorkers,
		SeqOps:         seqIn.Ops(),
	}

	// Execute jobs in enumeration order (default plan first) until done,
	// cancelled, or out of budget.
	for _, job := range jobs {
		if err := ctx.Err(); err != nil {
			counters.cancelled.Add(1)
			return nil, err
		}
		if cfg.MaxRuns > 0 && rep.Runs >= cfg.MaxRuns {
			rep.BudgetExhausted = true
			counters.exhausted.Add(1)
			break
		}
		stats, err := executeJob(res, nests, job, cfg)
		if err != nil {
			counters.failed.Add(1)
			return nil, err
		}
		rep.Runs++
		counters.runs.Add(1)
		scoreJob(nests, job, stats, cfg)
	}

	assemble(rep, nests, cfg)
	counters.scored.Add(int64(rep.Searched))
	counters.pruned.Add(int64(rep.Pruned))
	return rep, nil
}

// collectNests gathers the chosen loops with their baseline profiles and
// legal interchange depths, in the parallelizer's deterministic loop order.
func collectNests(res *parallel.Result, prof *exec.Profiler, cfg Config) []*nest {
	var nests []*nest
	for _, li := range res.Ordered {
		if !li.Chosen {
			continue
		}
		n := &nest{
			li:     li,
			depths: parallel.InterchangeDepths(res, li, cfg.MaxDepth),
			at:     map[int]*parallel.LoopInfo{},
			elems:  map[int]nestElems{},
		}
		for _, d := range n.depths {
			pl := parallel.LoopAtDepth(res, li, d)
			n.at[d] = pl
			n.elems[d] = elemsOf(pl)
		}
		if lp := prof.Of(li.Region.Loop); lp != nil {
			n.seqOps = lp.TotalOps
			n.seqInv = lp.Invocations
		}
		nests = append(nests, n)
	}
	return nests
}

// enumerate walks the global variant space in canonical order — workers,
// then depth — allocating one candidate slot per surviving (nest, variant)
// pair and grouping them into shared run jobs. The default plan's job is
// always first so a budget of one run still produces a baseline. W=1
// variants are scored from the sequential profile and need no run.
func enumerate(nests []*nest, cfg Config) []*runJob {
	var jobs []*runJob
	index := map[runKey]*runJob{}
	jobFor := func(k runKey) *runJob {
		if j := index[k]; j != nil {
			return j
		}
		j := &runJob{key: k}
		index[k] = j
		jobs = append(jobs, j)
		return j
	}

	if cfg.DefaultWorkers > 1 {
		// Reserve position 0 for the baseline run; the per-nest default
		// scores are extracted from it even when the default variant is
		// itself pruned from the candidate enumeration.
		j := jobFor(runKey{workers: cfg.DefaultWorkers})
		for _, n := range nests {
			j.refs = append(j.refs, runRef{nest: n})
		}
	}

	for _, w := range cfg.Workers {
		for d := 0; d <= cfg.MaxDepth; d++ {
			for _, n := range nests {
				addCandidate(n, Variant{Workers: w, Depth: d}, cfg, jobFor)
			}
		}
	}
	return jobs
}

// addCandidate decides one (nest, variant) pair: prune it, score it from
// the sequential baseline (W=1), or attach it to its run job.
func addCandidate(n *nest, v Variant, cfg Config, jobFor func(runKey) *runJob) {
	if !n.legal(v.Depth) {
		n.pruned++ // interchange depth not proven legal for this nest
		return
	}
	if v.Workers == 1 {
		// One worker runs every iteration in order at any depth: only the
		// depth-0 point is kept, scored directly from the sequential profile.
		if v.Depth != 0 {
			n.pruned++
			return
		}
		sc := seqScore(n, cfg)
		n.cands = append(n.cands, &candidate{v: v, score: &sc})
		return
	}
	if v.Workers > cfg.Model.Procs {
		n.pruned++ // wider than the machine: the model cannot favor it
		return
	}
	c := &candidate{v: v}
	n.cands = append(n.cands, c)
	j := jobFor(runKey{workers: v.Workers, depth: v.Depth})
	j.refs = append(j.refs, runRef{nest: n, cand: c})
}

// executeJob builds and runs one candidate plan: every nest is planned at
// the job's depth where legal (its outermost loop otherwise), at the job's
// worker count.
func executeJob(res *parallel.Result, nests []*nest, job *runJob, cfg Config) (map[statKey]exec.ParLoopStat, error) {
	plan := &exec.ParallelPlan{Workers: job.key.workers, Loops: map[*ir.DoLoop]*exec.LoopPlan{}}
	opt := parallel.DefaultPlanOptions(job.key.workers)
	for _, n := range nests {
		d := job.key.depth
		if !n.legal(d) {
			d = 0
		}
		pl := n.at[d]
		plan.Loops[pl.Region.Loop] = parallel.LowerLoop(pl, opt)
	}
	in := exec.NewWithPlan(res.Prog, plan)
	in.MaxOps = cfg.MaxOps
	if err := in.Run(); err != nil {
		return nil, fmt.Errorf("tune: variant %dw/d%d: %w", job.key.workers, job.key.depth, err)
	}
	stats := map[statKey]exec.ParLoopStat{}
	for _, st := range in.ParallelStats() {
		stats[statKey{st.Line, st.Index}] = st
	}
	return stats, nil
}

type statKey struct {
	line  int
	index string
}

// scoreJob fills every candidate slot served by one executed run, and
// captures the per-nest default scores from the baseline run.
func scoreJob(nests []*nest, job *runJob, stats map[statKey]exec.ParLoopStat, cfg Config) {
	for _, ref := range job.refs {
		n := ref.nest
		d := job.key.depth
		if !n.legal(d) {
			d = 0
		}
		pl := n.at[d].Region.Loop
		st := stats[statKey{pl.Pos.Line, pl.Index.Name}]
		sc := scoreVariant(cfg.Model, Variant{Workers: job.key.workers, Depth: d}, n.seqOps, st, n.elems[d])
		if ref.cand != nil {
			ref.cand.score = &sc
		} else {
			n.deflt = sc // baseline-run ref: the nest's default score
		}
	}
}

// scoreVariant folds a measured schedule profile through the machine cost
// model. The nest's modeled cost is its sequential remainder (outer levels
// and dispatch that stay serial) plus the critical path under bus
// contention plus per-invocation overheads: spawn, reduction
// initialization and §6.3.4 staggered finalization, private-copy
// initialization and last-iteration write-back. All terms are deterministic
// functions of virtual-time counts, so scores are reproducible bit-for-bit.
func scoreVariant(m *machine.Model, v Variant, nestSeqOps int64, st exec.ParLoopStat, el nestElems) Score {
	sc := Score{
		Variant:     v,
		Invocations: st.Invocations,
		WorkerOps:   st.WorkerOps,
		CritOps:     st.CritOps,
	}
	eff := st.Workers
	if eff < 1 {
		eff = 1
	}
	serial := nestSeqOps - st.WorkerOps
	if serial < 0 {
		serial = 0
	}
	inv := float64(st.Invocations)
	cycles := float64(serial) * m.CyclesPerOp
	cycles += float64(st.CritOps) * m.CyclesPerOp * (1 + m.BusPenalty*float64(eff-1))
	cycles += inv * m.SpawnCost
	if el.red > 0 {
		init := inv * float64(el.red) * m.CyclesPerOp
		// §6.3.4: disjoint chunks finalize concurrently, one lock each.
		final := init + inv*m.LockCost*4
		cycles += init + final
	}
	cycles += inv * float64(el.priv+el.fin) * m.CyclesPerOp
	sc.Cycles = cycles
	return sc
}

// assemble turns the per-nest search state into the final report: chosen =
// lowest modeled cycles over the scored candidates, with the default as the
// incumbent (a candidate must beat it strictly, so ties keep the simpler
// baseline and per-nest speedup is never below 1).
func assemble(rep *Report, nests []*nest, cfg Config) {
	for _, n := range nests {
		if cfg.DefaultWorkers <= 1 {
			n.deflt = seqScore(n, cfg)
		}
		lr := LoopReport{
			ID:      n.li.ID(),
			Line:    n.li.Region.Loop.Pos.Line,
			Index:   n.li.Region.Loop.Index.Name,
			SeqOps:  n.seqOps,
			Depths:  n.depths,
			Pruned:  n.pruned,
			Default: n.deflt,
			Chosen:  n.deflt,
		}
		for _, c := range n.cands {
			if c.score == nil {
				lr.Pruned++ // budget cut before this variant's run
				continue
			}
			lr.Searched = append(lr.Searched, *c.score)
			if c.score.Cycles < lr.Chosen.Cycles {
				lr.Chosen = *c.score
			}
		}
		lr.Speedup = ratio(lr.Default.Cycles, lr.Chosen.Cycles)
		rep.Searched += len(lr.Searched)
		rep.Pruned += lr.Pruned
		rep.Loops = append(rep.Loops, lr)
	}
	sort.SliceStable(rep.Loops, func(i, j int) bool { return rep.Loops[i].ID < rep.Loops[j].ID })

	var inNests int64
	for _, n := range nests {
		inNests += n.seqOps
	}
	serial := rep.SeqOps - inNests
	if serial < 0 {
		serial = 0
	}
	base := float64(serial) * cfg.Model.CyclesPerOp
	rep.DefaultCycles = base
	rep.ChosenCycles = base
	for _, lr := range rep.Loops {
		rep.DefaultCycles += lr.Default.Cycles
		rep.ChosenCycles += lr.Chosen.Cycles
	}
	rep.Speedup = ratio(rep.DefaultCycles, rep.ChosenCycles)
}

// seqScore is the W=1 score derived from the sequential baseline profile.
func seqScore(n *nest, cfg Config) Score {
	return Score{
		Variant:     Variant{Workers: 1},
		Invocations: n.seqInv,
		WorkerOps:   n.seqOps,
		CritOps:     n.seqOps,
		Cycles:      float64(n.seqOps) * cfg.Model.CyclesPerOp,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// BuildPlan lowers the report's winning variants to an execution plan over
// the same parallelization result the search ran on. Nests whose winner is
// one worker are left out (sequential beat every parallel variant); the
// plan-wide worker count is the widest chosen nest, with narrower nests
// capped per loop via MaxWorkers.
func (r *Report) BuildPlan(res *parallel.Result) *exec.ParallelPlan {
	byID := map[string]*parallel.LoopInfo{}
	for _, li := range res.Ordered {
		if li.Chosen {
			byID[li.ID()] = li
		}
	}
	plan := &exec.ParallelPlan{Workers: 1, Loops: map[*ir.DoLoop]*exec.LoopPlan{}}
	for _, lr := range r.Loops {
		li := byID[lr.ID]
		if lr.Chosen.Workers <= 1 || li == nil {
			continue
		}
		if addVariant(plan, res, li, lr.Chosen.Variant) && lr.Chosen.Workers > plan.Workers {
			plan.Workers = lr.Chosen.Workers
		}
	}
	return plan
}

// VariantPlan lowers a single nest's variant to a standalone execution plan
// — the exact plan the search executed that nest under (modulo the other
// nests sharing the run). The property suite uses it to prove every
// enumerated variant is semantics-preserving, not just the winner.
func VariantPlan(res *parallel.Result, li *parallel.LoopInfo, v Variant) *exec.ParallelPlan {
	plan := &exec.ParallelPlan{Workers: max(v.Workers, 1), Loops: map[*ir.DoLoop]*exec.LoopPlan{}}
	if v.Workers > 1 && !addVariant(plan, res, li, v) {
		return nil
	}
	return plan
}

// addVariant lowers one nest at one variant into plan. It reports false
// when the variant's depth is not resolvable on this result.
func addVariant(plan *exec.ParallelPlan, res *parallel.Result, li *parallel.LoopInfo, v Variant) bool {
	pl := parallel.LoopAtDepth(res, li, v.Depth)
	if pl == nil {
		return false
	}
	lp := parallel.LowerLoop(pl, parallel.DefaultPlanOptions(v.Workers))
	lp.MaxWorkers = v.Workers
	plan.Loops[pl.Region.Loop] = lp
	return true
}
