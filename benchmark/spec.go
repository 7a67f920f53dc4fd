package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The four workloads. Later issues cite these names.
const (
	wlBatch   = "batch-20k"
	wlSession = "session-dialogue"
	wlExec    = "exec-run"
	wlServe   = "serve-mix"
)

var workloadNames = []string{wlBatch, wlSession, wlExec, wlServe}

// metricDef is one metric of BENCHMARK.json. On lists the workloads that
// measure it ("" = all four); on the others it is reported as 0, meaning the
// layer is not exercised there.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	On     string  `json:"-"`
}

func (d metricDef) on(workload string) bool {
	return d.On == "" || strings.Contains(" "+d.On+" ", " "+workload+" ")
}

// endToEnd is the gated list. The PR driver wants every end-to-end metric
// from every workload, each a real measurement, so the workload-specific
// delays are gated through the delay slots: on each workload a slot carries
// one of that workload's named delays (see gated), in milliseconds. The
// named delays themselves head the per-layer list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lo, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lo, Bound: 0.10},
	{Name: delaySlot(0), Unit: "ms", Better: lo, Bound: 0.25},
	{Name: delaySlot(1), Unit: "ms", Better: lo, Bound: 0.25},
	{Name: delaySlot(2), Unit: "ms", Better: lo, Bound: 0.25},
}

func delaySlot(i int) string { return fmt.Sprintf("delay%d_ms", i+1) }

// gated names, per workload, the delay each slot carries. batch-20k has one
// named delay, the verdict; its other slots carry the two stages that are
// 99% of it, so that a gain in one stage that costs the other shows.
var gated = map[string][]string{
	wlBatch:   {"verdict_s", "driver.analyze_ms", "parallel.parallelize_ms"},
	wlSession: {"assert_ms", "session_create_ms", "edit_ms"},
	wlExec:    {"run_ms", "profile_run_ms", "par_run_ms"},
	wlServe:   {"analyze_hit_ms", "analyze_miss_ms", "profile_req_ms"},
}

// carried names the delay that slot carries on workload; "" when the metric
// is not a delay slot.
func carried(workload, slot string) string {
	for i, name := range gated[workload] {
		if delaySlot(i) == slot {
			return name
		}
	}
	return ""
}

// label is how a metric is printed on a workload: a delay slot shows the
// delay it carries.
func label(workload, metric string) string {
	if name := carried(workload, metric); name != "" {
		return metric + "=" + name
	}
	return metric
}

// defOf finds a metric's definition by name.
func defOf(name string) metricDef {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: no metric named " + name)
}

const (
	lo = "lower"
	hi = "higher"
)

func perProgram(prefix, unit, on string, names []string) []metricDef {
	var out []metricDef
	for _, n := range names {
		out = append(out, metricDef{Name: prefix + n, Unit: unit, Better: lo, On: on})
	}
	return out
}

var (
	sessionApps  = []string{"mdg", "hydro", "arc3d", "flo88"}
	execProgs    = []string{"mdg", "hydro", "applu", "arc3d", "flo88"}
	serveClasses = []string{"analyze_hit", "analyze_miss", "profile", "slice", "session_step"}
)

// perLayer lists the layer metrics, reported by the traced run. The first
// block holds each workload's named user-visible delays; the rest is one
// block per module.
var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "verdict_s", Unit: "s", Better: lo, On: wlBatch},
		{Name: "session_create_ms", Unit: "ms", Better: lo, On: wlSession},
		{Name: "assert_ms", Unit: "ms", Better: lo, On: wlSession},
		{Name: "edit_ms", Unit: "ms", Better: lo, On: wlSession},
		{Name: "slice_ms", Unit: "ms", Better: lo, On: wlSession},
		{Name: "run_ms", Unit: "ms", Better: lo, On: wlExec},
		{Name: "profile_run_ms", Unit: "ms", Better: lo, On: wlExec},
		{Name: "par_run_ms", Unit: "ms", Better: lo, On: wlExec},
		{Name: "serve_rps", Unit: "1/s", Better: hi, On: wlServe},
		{Name: "analyze_hit_ms", Unit: "ms", Better: lo, On: wlServe},
		{Name: "analyze_miss_ms", Unit: "ms", Better: lo, On: wlServe},
		{Name: "profile_req_ms", Unit: "ms", Better: lo, On: wlServe},
		{Name: "ops_per_s", Unit: "1/s", Better: hi},
		{Name: "op_hi_ms", Unit: "ms", Better: lo},

		{Name: "corpus.gen_ms", Unit: "ms", Better: lo, On: wlBatch + " " + wlSession + " " + wlServe},

		{Name: "minif.parse_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "minif.klines_per_s", Unit: "klines/s", Better: hi, On: wlBatch},
		{Name: "minif.procs", Unit: "count", Better: lo, On: wlBatch},
		{Name: "minif.loops", Unit: "count", Better: lo, On: wlBatch},

		{Name: "driver.analyze_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "summary.seq_analyze_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "driver.speedup", Unit: "ratio", Better: hi, On: wlBatch},
		{Name: "driver.superlin", Unit: "ratio", Better: lo, On: wlBatch},
		{Name: "driver.inc_ms", Unit: "ms", Better: lo, On: wlBatch + " " + wlSession},
		{Name: "driver.inc.recomputed", Unit: "count", Better: lo, On: wlBatch + " " + wlSession},
		{Name: "driver.inc.reused", Unit: "count", Better: hi, On: wlBatch + " " + wlSession},
		{Name: "driver.cache.hit_share", Unit: "ratio", Better: hi, On: wlServe},
		{Name: "driver.cache.evictions", Unit: "count", Better: lo, On: wlServe},

		{Name: "liveness.full_ms", Unit: "ms", Better: lo, On: wlBatch + " " + wlSession},

		{Name: "depend.loops_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "depend.loops", Unit: "count", Better: lo, On: wlBatch},
		{Name: "depend.us_per_loop", Unit: "us", Better: lo, On: wlBatch},

		{Name: "parallel.parallelize_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "parallel.choose_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "parallel.superlin", Unit: "ratio", Better: lo, On: wlBatch},
		{Name: "parallel.chosen_loops", Unit: "count", Better: hi, On: wlBatch},
		{Name: "parallel.blocked_loops", Unit: "count", Better: lo, On: wlBatch},
		{Name: "parallel.plan_ms", Unit: "ms", Better: lo, On: wlBatch},
		{Name: "parallel.repar_ms", Unit: "ms", Better: lo, On: wlBatch + " " + wlSession},
		{Name: "batch.verdict_5k_ms", Unit: "ms", Better: lo, On: wlBatch},
	}
	for _, tier := range []string{"tree", "bytecode", "tiered", "register"} {
		m = append(m, metricDef{Name: "exec." + tier + ".run_ms", Unit: "ms", Better: lo, On: wlExec})
	}
	m = append(m, perProgram("exec.run_ms.", "ms", wlExec, execProgs)...)
	m = append(m,
		metricDef{Name: "exec.profiler_only_ms", Unit: "ms", Better: lo, On: wlExec},
		metricDef{Name: "exec.dda_full_ms", Unit: "ms", Better: lo, On: wlExec},
		metricDef{Name: "exec.dda_sampled_ms", Unit: "ms", Better: lo, On: wlExec},
		metricDef{Name: "exec.compile_ms", Unit: "ms", Better: lo, On: wlExec},
		metricDef{Name: "exec.allocs_per_run", Unit: "count", Better: lo, On: wlExec},
		metricDef{Name: "exec.kb_per_run", Unit: "KB", Better: lo, On: wlExec},
		metricDef{Name: "exec.spec_invocations", Unit: "count", Better: hi, On: wlExec},
		metricDef{Name: "exec.register_iterations", Unit: "count", Better: hi, On: wlExec},
		metricDef{Name: "exec.fallbacks", Unit: "count", Better: lo, On: wlExec},
		metricDef{Name: "exec.par.run_ms.1w", Unit: "ms", Better: lo, On: wlExec},
		metricDef{Name: "exec.par.wall_speedup", Unit: "ratio", Better: hi, On: wlExec},
		metricDef{Name: "exec.par.vt_speedup", Unit: "ratio", Better: hi, On: wlExec},
		metricDef{Name: "exec.par.loop_runs", Unit: "count", Better: lo, On: wlExec},
		metricDef{Name: "exec.par.workers_spawned", Unit: "count", Better: lo, On: wlExec},
		metricDef{Name: "exec.par.us_per_fork", Unit: "us", Better: lo, On: wlExec},

		metricDef{Name: "tune.search_ms", Unit: "ms", Better: lo, On: wlExec},
		metricDef{Name: "tune.runs", Unit: "count", Better: lo, On: wlExec},
		metricDef{Name: "tune.modeled_speedup", Unit: "ratio", Better: hi, On: wlExec},

		metricDef{Name: "explorer.analyze_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "explorer.profile_ms", Unit: "ms", Better: lo, On: wlSession},
	)
	m = append(m, perProgram("session.create_ms.", "ms", wlSession, sessionApps)...)
	m = append(m, perProgram("session.assert_ms.", "ms", wlSession, sessionApps)...)
	m = append(m,
		metricDef{Name: "session.assert_hi_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "session.guru_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "session.why_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "session.incremental_speedup", Unit: "ratio", Better: hi, On: wlSession},

		metricDef{Name: "issa.build_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "slice.cold_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "slice.warm_ms", Unit: "ms", Better: lo, On: wlSession},
		metricDef{Name: "slice.lines", Unit: "count", Better: lo, On: wlSession},
	)
	for _, c := range serveClasses {
		m = append(m,
			metricDef{Name: "server." + c + ".ms_p50", Unit: "ms", Better: lo, On: wlServe},
			metricDef{Name: "server." + c + ".ms_hi", Unit: "ms", Better: lo, On: wlServe})
	}
	m = append(m,
		metricDef{Name: "server.direct.analyze_hit_ms", Unit: "ms", Better: lo, On: wlServe},
		metricDef{Name: "server.hit_overhead_ms", Unit: "ms", Better: lo, On: wlServe},
		metricDef{Name: "server.analyze.resp_kb", Unit: "KB", Better: lo, On: wlServe},
		metricDef{Name: "server.shed_429", Unit: "count", Better: lo, On: wlServe},

		metricDef{Name: "cluster.hop_ms", Unit: "ms", Better: lo, On: wlServe},
		metricDef{Name: "cluster.retries", Unit: "count", Better: lo, On: wlServe},
		metricDef{Name: "cluster.hedges", Unit: "count", Better: lo, On: wlServe},
		metricDef{Name: "cluster.shard_balance", Unit: "ratio", Better: lo, On: wlServe},
		metricDef{Name: "cluster.batch_ms", Unit: "ms", Better: lo, On: wlServe},
		metricDef{Name: "cluster.batch_items_per_s", Unit: "1/s", Better: hi, On: wlServe},

		metricDef{Name: "mem.alloc_mb_per_op", Unit: "MB", Better: lo},
		metricDef{Name: "mem.gc_cycles", Unit: "count", Better: lo},
		metricDef{Name: "trace.overhead_share", Unit: "ratio", Better: lo},
	)
	return m
}()

// benchSpec mirrors BENCHMARK.json, the contract the PR driver reads.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
