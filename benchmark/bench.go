package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procStart approximates process start, so the first set-up sample covers
// runtime and package initialisation too.
var procStart = time.Now()

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 3

// metricValue is a metric's final value and how many samples it was
// computed from (1 for a count read once).
type metricValue struct {
	v float64
	n int
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy shrinks every input so the smoke test finishes in seconds; it is
	// set by tests only.
	toy bool
	// corruptOracle flips one reference value, so a test can show that a
	// wrong output fails the run.
	corruptOracle bool
	outDir        string
}

// planWorkers is the worker count of plan-driven runs: min(nproc, 4).
func planWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// workload is one closed-loop load shape. The runner calls setup setupReps
// times (close between repetitions), then timed for the measuring window,
// sidecars in the traced run only, and finish to check outputs and derive
// the metrics.
type workload interface {
	setup(b *bench) error
	timed(b *bench, d time.Duration)
	sidecars(b *bench)
	finish(b *bench)
	close()
	// delaySeries names the series behind one of the workload's gated
	// delays (see gated), one per program.
	delaySeries(name string) []string
}

// bench collects one run's samples, counts and final metric values.
type bench struct {
	cfg config
	tr  *tracer

	mu        sync.Mutex
	series    map[string][]float64 // millisecond samples by series name
	vals      map[string]metricValue
	attempted int
	failed    int
	fails     []string
	timedWall time.Duration // untraced measuring window actually used
	// tracedWindow is set during the traced run's second measuring window.
	tracedWindow bool
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, tr: newTracer(), series: map[string][]float64{}, vals: map[string]metricValue{}}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracedPrefix keeps samples taken with tracing on apart: metrics always
// come from the untraced window, and the traced copy of the headline series
// gives the tracing overhead.
const tracedPrefix = "traced/"

// obs records one duration sample of a series, in milliseconds.
func (b *bench) obs(series string, d time.Duration) { b.obsVal(series, ms(d)) }

// obsVal records one sample of a series that is not a duration.
func (b *bench) obsVal(series string, v float64) {
	if b.tracedWindow {
		series = tracedPrefix + series
	}
	b.mu.Lock()
	b.series[series] = append(b.series[series], v)
	b.mu.Unlock()
}

// time runs fn inside the just-opened span s — a child span within an
// operation, a root span for a sidecar — ends it, and records the duration
// as a sample of series.
func (b *bench) time(s span, series string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.end()
	b.obs(series, d)
	return d
}

// prefixed returns prefix+name for every name.
func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

// op counts one attempted operation; a false ok counts it as failed.
func (b *bench) op(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if len(b.fails) < 10 {
		b.fails = append(b.fails, fmt.Sprintf(format, args...))
	}
}

// set fixes a metric's value and the number of samples behind it; setting
// one twice is a bug in the benchmark.
func (b *bench) set(name string, v float64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.vals[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	b.vals[name] = metricValue{v, n}
}

// setCount fixes a metric that is a count or a ratio of counts, read once.
func (b *bench) setCount(name string, v float64) { b.set(name, v, 1) }

func (b *bench) med(series string) float64 { return median(b.series[series]) }

// setMedian fixes a metric as the median of the pooled samples of series.
func (b *bench) setMedian(name string, series ...string) {
	xs := b.pooled(series...)
	b.set(name, median(xs), len(xs))
}

// geomeanOf is the geometric mean of the per-program medians of
// prefix+name.
func (b *bench) geomeanOf(prefix string, names []string) float64 {
	meds := make([]float64, len(names))
	for i, s := range prefixed(prefix, names) {
		meds[i] = b.med(s)
	}
	return geomean(meds)
}

// setGeomean fixes a metric as geomeanOf(prefix, names).
func (b *bench) setGeomean(name, prefix string, names []string) {
	b.set(name, b.geomeanOf(prefix, names), b.count(prefixed(prefix, names)...))
}

// count is the number of samples in series, summed.
func (b *bench) count(series ...string) int {
	n := 0
	for _, s := range series {
		n += len(b.series[s])
	}
	return n
}

// pooled concatenates the samples of several series.
func (b *bench) pooled(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		out = append(out, b.series[n]...)
	}
	return out
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// result is what a run reports; its JSON form is the contract's last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`

	rows  []row // every metric computed, for the printed table
	fails []string
}

// row is one printed metric: its value and how many samples stand behind it.
type row struct {
	name, unit string
	value      float64
	samples    int
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload once and returns its result; an error means the
// set-up failed and nothing was measured.
func run(cfg config, w workload) (*result, error) {
	b := newBench(cfg)
	defer w.close()

	reps := setupReps
	if cfg.toy {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		} else {
			w.close()
		}
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if cfg.trace {
		window /= 2
	}
	opsBefore := b.attempted
	t0 := time.Now()
	w.timed(b, window)
	b.timedWall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	untracedOps := b.attempted - opsBefore
	if cfg.trace {
		b.tr.on, b.tracedWindow = true, true
		w.timed(b, window)
		b.tracedWindow = false
		w.sidecars(b)
		b.tr.on = false
	}
	w.finish(b)
	// Each gated delay — the geometric mean over its programs of each one's
	// median — is reported under its name and, in milliseconds, in its slot.
	for i, name := range gated[cfg.workload] {
		series := w.delaySeries(name)
		v, n := b.geomeanOf("", series), b.count(series...)
		b.set(delaySlot(i), v, n)
		if defOf(name).Unit == "s" {
			v /= 1e3
		}
		b.set(name, v, n)
	}
	head := w.delaySeries(gated[cfg.workload][0])
	samples := b.pooled(head...)
	_, opHi := hiPercentile(samples)
	b.set("op_hi_ms", opHi, len(samples))
	overhead, traced := 0.0, 0
	if cfg.trace {
		overhead = b.geomeanOf(tracedPrefix, head)/b.geomeanOf("", head) - 1
		traced = b.count(prefixed(tracedPrefix, head)...)
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := b.tr.write(path, cfg.workload, cfg.seed); err != nil {
			b.op(false, "write %s: %v", path, err)
		}
	}
	b.set("trace.overhead_share", overhead, traced)

	b.set("setup_s", median(setups), len(setups))
	b.setCount("peak_rss_mb", peakRSSMB())
	b.set("ops_per_s", float64(untracedOps)/b.timedWall.Seconds(), untracedOps)
	b.set("mem.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(max(untracedOps, 1)), untracedOps)
	b.setCount("mem.gc_cycles", float64(m1.NumGC-m0.NumGC))
	return b.result(), nil
}

// value is a metric's value: as set, or else the median of the series of the
// same name; NaN when there is neither.
func (b *bench) value(name string) metricValue {
	if mv, ok := b.vals[name]; ok {
		return mv
	}
	if n := len(b.series[name]); n > 0 {
		return metricValue{b.med(name), n}
	}
	return metricValue{v: math.NaN()}
}

// result fills in the defaults — a metric left unset gets the median of the
// series of the same name; a layer the workload does not exercise reports
// 0 — and fails the run for any metric the workload should have produced
// but did not.
func (b *bench) result() *result {
	r := &result{Metrics: map[string]metricVal{}}
	// sidecarOnly: the untraced run lacks the metrics only sidecars measure.
	fill := func(defs []metricDef, emit, sidecarOnly bool) {
		for _, d := range defs {
			mv := b.value(d.Name)
			if math.IsNaN(mv.v) {
				switch {
				case !d.on(b.cfg.workload):
					mv.v = 0
				case sidecarOnly:
					continue
				}
			}
			if math.IsNaN(mv.v) || math.IsInf(mv.v, 0) {
				b.op(false, "metric %s was not measured", d.Name)
				mv.v = 0
			}
			if d.on(b.cfg.workload) {
				r.rows = append(r.rows, row{d.Name, d.Unit, mv.v, mv.n})
			}
			if emit {
				r.Metrics[d.Name] = metricVal{Value: mv.v, Unit: d.Unit}
			}
		}
	}
	fill(endToEnd, !b.cfg.trace, false)
	fill(perLayer, b.cfg.trace, !b.cfg.trace)
	r.Attempted, r.Failed, r.fails = b.attempted, b.failed, b.fails
	r.Correct = b.failed == 0
	return r
}
