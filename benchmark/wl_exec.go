package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/experiments"
	"suifx/internal/ir"
	"suifx/internal/parallel"
	"suifx/internal/tune"
	"suifx/internal/workloads"
)

// execProg is one program, analyzed and planned in set-up, with the
// tree-walker's answers for the sequential and the plan-driven run.
type execProg struct {
	name    string
	prog    *ir.Program
	res     *parallel.Result
	plan    *exec.ParallelPlan // at planWorkers()
	plan1   *exec.ParallelPlan // at one worker: forks without parallelism
	seqWant runOut
	parWant runOut
}

// execWL is the Execution Analyzers and the runtime: the same programs run
// plain, under the profiler plus full dynamic dependence analysis, and
// plan-driven. Static analysis happens in set-up only.
type execWL struct {
	progs  []*execProg
	rounds int
	c0, c1 exec.Counters // engine counters around the untraced window
}

var planOpts = parallel.PlanOptions{Staggered: true, Chunks: 4}

func (w *execWL) setup(b *bench) error {
	names := execProgs
	if b.cfg.toy {
		names = execProgs[:2]
	}
	w.progs = nil
	for _, n := range names {
		wl := workloads.ByName(n)
		p := &execProg{name: n, prog: wl.Fresh()}
		sum := driver.Analyze(p.prog, driver.Options{})
		p.res = parallel.ParallelizeWith(sum, parallel.Config{UseReductions: true, Assertions: wl.Assertions()})
		opts := planOpts
		opts.Workers = planWorkers()
		p.plan = parallel.BuildPlanOpts(p.res, opts)
		opts.Workers = 1
		p.plan1 = parallel.BuildPlanOpts(p.res, opts)

		var err error
		if p.seqWant, _, err = execute(treeInterp(exec.New(p.prog))); err != nil {
			return fmt.Errorf("%s: oracle run: %w", n, err)
		}
		if p.parWant, _, err = execute(treeInterp(exec.NewWithPlan(p.prog, p.plan))); err != nil {
			return fmt.Errorf("%s: plan-driven oracle run: %w", n, err)
		}
		w.progs = append(w.progs, p)
	}
	if b.cfg.corruptOracle {
		w.progs[0].seqWant.ops++
	}
	w.round(b, "warm/")
	return nil
}

// run executes one interpreter and checks it against the oracle.
func (w *execWL) run(b *bench, root span, p *execProg, class, prefix string, in *exec.Interp, want runOut) {
	s := root.child("exec.Run/" + class)
	got, d, err := execute(in)
	s.end()
	for _, st := range in.ParallelStats() {
		b.tr.count("exec.par.loop_runs", st.Invocations)
	}
	b.obs(prefix+class+"."+p.name, d)
	if prefix == "" {
		b.op(err == nil && got == want, "%s %s: err %v, got ops %d arena %x out %q, want ops %d arena %x out %q",
			p.name, class, err, got.ops, got.arena, got.out, want.ops, want.arena, want.out)
	}
}

// round runs every program once in each of the three configurations.
func (w *execWL) round(b *bench, prefix string) {
	for _, p := range w.progs {
		root := b.tr.root("exec.round/" + p.name)
		w.run(b, root, p, "run_ms", prefix, exec.New(p.prog), p.seqWant)

		in := exec.New(p.prog)
		exec.NewProfiler(in)
		exec.NewDynDep(in)
		w.run(b, root, p, "profile_run_ms", prefix, in, p.seqWant)

		w.run(b, root, p, "par_run_ms", prefix, exec.NewWithPlan(p.prog, p.plan), p.parWant)
		root.end()
	}
}

func (w *execWL) timed(b *bench, d time.Duration) {
	c0, rounds := exec.ReadCounters(), 0
	for t0 := time.Now(); time.Since(t0) < d; rounds++ {
		w.round(b, "")
	}
	if !b.tracedWindow {
		w.c0, w.c1, w.rounds = c0, exec.ReadCounters(), rounds
	}
}

// sidecars measure the engine tiers, the analyzers apart, compilation,
// allocation, one-worker plan runs, and one tuning search.
func (w *execWL) sidecars(b *bench) {
	reps := 20
	if b.cfg.toy {
		reps = 2
	}
	mdg := w.progs[0]
	timeRuns := func(series string, n int, mk func() *exec.Interp) {
		for i := 0; i < n; i++ {
			in := mk()
			b.time(b.tr.root("exec.Run/"+series), series, func() {
				if err := in.Run(); err != nil {
					b.op(false, "%s: %v", series, err)
				}
			})
		}
	}
	for _, tier := range []exec.ExecMode{exec.ModeTree, exec.ModeBytecode, exec.ModeTiered, exec.ModeRegister} {
		timeRuns("exec."+tier.String()+".run_ms", reps, func() *exec.Interp {
			in := exec.New(mdg.prog)
			in.Mode = tier
			return in
		})
	}
	timeRuns("exec.profiler_only_ms", reps, func() *exec.Interp {
		in := exec.New(mdg.prog)
		exec.NewProfiler(in)
		return in
	})
	dda := func(sampleEvery, warm int64) func() *exec.Interp {
		return func() *exec.Interp {
			in := exec.New(mdg.prog)
			d := exec.NewDynDep(in)
			d.SampleEvery, d.SampleWarm = sampleEvery, warm
			return in
		}
	}
	timeRuns("exec.dda_full_ms", reps, dda(0, 0))
	timeRuns("exec.dda_sampled_ms", reps, dda(10, 2))

	// Compilation: a run that stops at its first budget check, right after
	// the compiled code was dropped and again warm.
	start := func(series string) {
		in := exec.New(mdg.prog)
		in.MaxOps = 1
		b.time(b.tr.root("exec.Run/"+series), series, func() {
			if err := in.Run(); err == nil {
				b.op(false, "%s: a budget of one operation was not exceeded", series)
			}
		})
	}
	for i := 0; i < 5*reps; i++ {
		exec.InvalidateProgram(mdg.prog)
		start("exec.cold_start_ms")
		start("exec.warm_start_ms")
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		if err := exec.New(mdg.prog).Run(); err != nil {
			b.op(false, "alloc run: %v", err)
		}
	}
	runtime.ReadMemStats(&m1)
	b.set("exec.allocs_per_run", float64(m1.Mallocs-m0.Mallocs)/float64(reps), reps)
	b.set("exec.kb_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(reps), reps)

	for _, p := range w.progs {
		// One-worker plan runs, each next to a plain run, so that a phase
		// of interference reaches both sides of the fork cost.
		for i := 0; i < max(reps/2, 1); i++ {
			timeRuns("exec.par.run_ms.1w."+p.name, 1, func() *exec.Interp { return exec.NewWithPlan(p.prog, p.plan1) })
			timeRuns("exec.par.plain_ms."+p.name, 1, func() *exec.Interp { return exec.New(p.prog) })
		}
		// The plan must reproduce the sequential answer under the masks for
		// storage that is dead after a parallel loop.
		err := experiments.ValidatePlanned(p.res, p.plan, exec.ModeTree)
		b.op(err == nil, "%s: plan validation: %v", p.name, err)
	}

	var rep *tune.Report
	var err error
	b.time(b.tr.root("tune.Search"), "tune.search_ms", func() { rep, err = tune.Search(context.Background(), mdg.res, tune.Config{}) })
	if err != nil {
		b.op(false, "tune.Search: %v", err)
		return
	}
	b.setCount("tune.runs", float64(rep.Runs))
	b.setCount("tune.modeled_speedup", rep.Speedup)
}

func (w *execWL) finish(b *bench) {
	names := w.names()
	for _, n := range execProgs {
		if b.count("run_ms."+n) == 0 { // a program the toy size leaves out
			b.set("exec.run_ms."+n, 0, 0)
			continue
		}
		b.setMedian("exec.run_ms."+n, "run_ms."+n)
	}
	// Counter deltas per round: each round does the same work, so these
	// repeat exactly from run to run.
	per := func(name string, d int64) { b.set(name, float64(d)/float64(max(w.rounds, 1)), w.rounds) }
	per("exec.spec_invocations", w.c1.SpecInvocations-w.c0.SpecInvocations)
	per("exec.register_iterations", w.c1.RegIterations-w.c0.RegIterations)
	per("exec.fallbacks", w.c1.FallbackMode+w.c1.FallbackHooks+w.c1.FallbackAnalyzers-
		w.c0.FallbackMode-w.c0.FallbackHooks-w.c0.FallbackAnalyzers)
	per("exec.par.loop_runs", w.c1.ParallelLoopRuns-w.c0.ParallelLoopRuns)
	per("exec.par.workers_spawned", w.c1.ParallelWorkers-w.c0.ParallelWorkers)
	b.set("exec.par.wall_speedup", b.geomeanOf("run_ms.", names)/b.geomeanOf("par_run_ms.", names),
		b.count(prefixed("par_run_ms.", names)...))
	if !b.cfg.trace {
		return
	}
	// Compilation: what a run that stops at its first budget check costs
	// right after the compiled code was dropped, over what it costs warm.
	compile := b.med("exec.cold_start_ms") - b.med("exec.warm_start_ms")
	b.op(compile > 0, "exec.compile_ms = %g ms: a cold start must cost more than a warm one", compile)
	b.set("exec.compile_ms", compile, b.count("exec.cold_start_ms"))
	b.setGeomean("exec.par.run_ms.1w", "exec.par.run_ms.1w.", names)
	// Fork cost: what a one-worker plan run adds over the plain run, per
	// planned-loop invocation.
	var extra float64
	var vt []float64
	for _, p := range w.progs {
		extra += b.med("exec.par.run_ms.1w."+p.name) - b.med("exec.par.plain_ms."+p.name)
		in := exec.NewWithPlan(p.prog, p.plan)
		if err := in.Run(); err != nil {
			b.op(false, "%s: plan run: %v", p.name, err)
			continue
		}
		vt = append(vt, float64(p.seqWant.ops)/float64(in.CriticalPathOps()))
	}
	loopRuns := b.vals["exec.par.loop_runs"].v
	b.set("exec.par.us_per_fork", extra*1e3/loopRuns, b.count(prefixed("exec.par.run_ms.1w.", names)...))
	b.set("exec.par.vt_speedup", geomean(vt), len(vt))
}

func (w *execWL) names() []string {
	names := make([]string, len(w.progs))
	for i, p := range w.progs {
		names[i] = p.name
	}
	return names
}

// delaySeries: run_ms, profile_run_ms and par_run_ms each have one series
// per program.
func (w *execWL) delaySeries(name string) []string { return prefixed(name+".", w.names()) }

func (w *execWL) close() {}
