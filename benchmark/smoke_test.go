package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json's metric lists from the tables in spec.go")

const specPath = "../BENCHMARK.json"

func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 0.4, trace: trace, toy: true, outDir: t.TempDir()}
}

// TestSmokeEveryMetricOnce runs all four workloads at toy size, untraced and
// traced, and checks the contract's result line: every end-to-end metric
// (untraced) or every per-layer metric (traced) exactly once with its unit,
// no failed operation, and a metric a workload measures is never left at
// its "not exercised" zero.
func TestSmokeEveryMetricOnce(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := toyConfig(t, name, trace)
			r, err := run(cfg, newWorkload(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", name, trace, r.Attempted, r.Failed, r.fails)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit || m.Unit == "" {
					t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", name, d.Name, m.Value)
				}
				if !d.on(name) && m.Value != 0 {
					t.Errorf("%s: metric %s = %v on a workload that does not measure it", name, d.Name, m.Value)
				}
			}
			// Every printed value states how many samples stand behind it.
			for _, row := range r.rows {
				if row.value != 0 && row.samples == 0 {
					t.Errorf("%s trace=%v: %s = %v is printed with n=0", name, trace, row.name, row.value)
				}
			}
			// The printed line round-trips as the contract's JSON object.
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result line has keys %v (err %v), want correct/attempted/failed/metrics", name, keys, err)
			}
			if trace {
				checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+name+".json"))
			}
		}
	}
}

// checkTraceFile requires parented spans whose self times add up to each
// operation's wall time.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	selfByOp, wallByOp, children := map[int64]int64{}, map[int64]int64{}, 0
	for i, ns := range selfTimes(tf.Spans) {
		s := tf.Spans[i]
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) was never ended", path, i, s.Name)
		}
		selfByOp[s.Op] += ns
		if s.Parent < 0 {
			wallByOp[s.Op] = s.End - s.Start
		} else {
			children++
			if p := tf.Spans[s.Parent]; p.Op != s.Op || p.Start > s.Start || p.End < s.End {
				t.Errorf("%s: span %d (%s) is not inside its parent %s", path, i, s.Name, p.Name)
			}
		}
	}
	if children == 0 {
		t.Errorf("%s: no parented spans", path)
	}
	for op, wall := range wallByOp {
		if diff := math.Abs(float64(selfByOp[op] - wall)); diff > 0.05*float64(wall) {
			t.Errorf("%s: op %d self times sum to %d ns, wall %d ns", path, op, selfByOp[op], wall)
		}
	}
}

// A wrong reference must fail the run: the command exits non-zero exactly
// when result.Correct is false.
func TestCorruptOracleFails(t *testing.T) {
	for _, name := range workloadNames {
		cfg := toyConfig(t, name, false)
		cfg.corruptOracle = true
		r, err := run(cfg, newWorkload(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: corrupted oracle went unnoticed (attempted %d, failed %d)", name, r.Attempted, r.Failed)
		}
	}
}

// Exact counts must repeat exactly for a fixed seed.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats the traced toy runs")
	}
	exact := []string{"parallel.chosen_loops", "depend.loops", "driver.inc.recomputed", "minif.loops",
		"exec.par.loop_runs", "exec.par.workers_spawned", "tune.runs", "slice.lines"}
	for _, name := range workloadNames {
		var runs [2]*result
		for i := range runs {
			cfg := toyConfig(t, name, true)
			var err error
			if runs[i], err = run(cfg, newWorkload(cfg)); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range exact {
			if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
				t.Errorf("%s: %s = %v then %v", name, m, a, b)
			}
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := schedule(7, 0, 4000), schedule(7, 0, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same (seed, client) gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 0, 4000)) || reflect.DeepEqual(a, schedule(7, 1, 4000)) {
		t.Error("another seed or client gave the same schedule")
	}
	var n [len(classShare)]int
	for _, st := range a {
		n[st.class]++
		if int(st.hot) >= hotSetSize {
			t.Fatalf("hot index %d out of range", st.hot)
		}
	}
	for c, share := range classShare {
		if got := 100 * float64(n[c]) / float64(len(a)); math.Abs(got-float64(share)) > 3 {
			t.Errorf("class %d is %.1f%% of the schedule, want %d%%", c, got, share)
		}
	}
	// Seed 0 reproduces the frozen ladder; every other seed changes the text.
	if tierProgram("1k", 0).Source != tierProgram("1k", 0).Source || tierProgram("1k", 5).Source != tierProgram("1k", 5).Source {
		t.Error("same seed gave two sources")
	}
	if tierProgram("1k", 5).Source == tierProgram("1k", 6).Source {
		t.Error("seeds 5 and 6 gave the same source")
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json and spec.go in step; -update
// rewrites the file's metric lists from the tables.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		spec.EndToEnd, spec.PerLayer = endToEnd, perLayer
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(specPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].On = ""
		}
		return out
	}
	if !reflect.DeepEqual(strip(spec.EndToEnd), strip(endToEnd)) {
		t.Errorf("end_to_end in %s differs from spec.go (go test -update rewrites it)", specPath)
	}
	if !reflect.DeepEqual(strip(spec.PerLayer), strip(perLayer)) {
		t.Errorf("per_layer in %s differs from spec.go (go test -update rewrites it)", specPath)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(spec.PerLayer), len(spec.EndToEnd))
	}
	seen := map[string]bool{}
	for _, d := range append(strip(endToEnd), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lo && d.Better != hi {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
}

// Every delay slot carries, on every workload, a named delay that workload
// measures.
func TestGatedDelays(t *testing.T) {
	slots := 0
	for _, d := range endToEnd {
		if d.Name == delaySlot(slots) {
			slots++
		}
	}
	for _, w := range workloadNames {
		if len(gated[w]) != slots {
			t.Errorf("%s gates %d delays, want one per slot (%d)", w, len(gated[w]), slots)
		}
		for i, name := range gated[w] {
			if d := defOf(name); !d.on(w) || d.Better != lo {
				t.Errorf("%s: slot %s carries %s, which is not a delay of that workload", w, delaySlot(i), name)
			}
			if carried(w, delaySlot(i)) != name {
				t.Errorf("carried(%s, %s) = %q, want %s", w, delaySlot(i), carried(w, delaySlot(i)), name)
			}
		}
	}
}

// The README is the glossary: it must name every metric and workload.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention metric `%s`", d.Name)
		}
	}
	for _, w := range workloadNames {
		if !strings.Contains(readme, "`"+w+"`") {
			t.Errorf("README.md does not mention workload `%s`", w)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "delay1_ms", Better: lo, Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: hi, Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 90, 110, 75, 125, 100}
	for _, c := range []struct {
		d            metricDef
		base, change []float64
		want         string
	}{
		{lower, base, scale(1.0), "same"},
		{lower, base, scale(1.05), "same"},
		{lower, base, scale(1.2), "worse"},
		{lower, base, scale(0.8), "better"},
		{higher, base, scale(0.8), "worse"},
		{higher, base, scale(1.2), "better"},
		{lower, noisy, scale(1.2), "unresolved"},
		{lower, noisy, scale(0.5), "better"}, // every run beats every base run
	} {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s, median %v → %v) = %s, want %s", c.d.Name, median(c.base), median(c.change), got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, delay float64, failed int) string {
		var f repeatFile
		for i := 0; i < 4; i++ {
			f.Runs = append(f.Runs, repeatRun{Workload: wlBatch, Seed: int64(i), Result: &result{
				Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metricVal{delaySlot(0): {Value: delay + float64(i), Unit: "ms"}},
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 0)
	for _, c := range []struct {
		name   string
		delay  float64
		failed int
		want   int
	}{
		{"same.json", 1010, 0, 0},
		{"slow.json", 1500, 0, 1},
		{"failing.json", 1000, 1, 1},
	} {
		var out bytes.Buffer
		if got := compareFiles(&out, specPath, base, write(c.name, c.delay, c.failed)); got != c.want {
			t.Errorf("compare base %s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
