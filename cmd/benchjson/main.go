// Command benchjson converts `go test -bench` output into the JSON format
// of the committed BENCH_*.json files, uploaded by CI's bench-smoke job
// (see EXPERIMENTS.md for the format).
//
// Usage:
//
//	go test -bench 'Session' -benchtime=10x . | benchjson [-label note] [-o out.json]
//
// Lines that are not benchmark results (headers, PASS/ok) populate the
// environment fields or are ignored, so raw `go test` output pipes straight
// through. The derived block records each harness's acceptance numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	Label      string             `json:"label,omitempty"`
	Date       string             `json:"date"`
	GoOS       string             `json:"goos,omitempty"`
	GoArch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	label := flag.String("label", "", "free-form label recorded in the report")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep := &Report{Label: *label, Date: time.Now().UTC().Format("2006-01-02")}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		parseLine(rep, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	derive(rep)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine consumes one line of `go test -bench` output.
func parseLine(rep *Report, line string) {
	if v, ok := strings.CutPrefix(line, "goos: "); ok {
		rep.GoOS = strings.TrimSpace(v)
		return
	}
	if v, ok := strings.CutPrefix(line, "goarch: "); ok {
		rep.GoArch = strings.TrimSpace(v)
		return
	}
	if v, ok := strings.CutPrefix(line, "cpu: "); ok {
		rep.CPU = strings.TrimSpace(v)
		return
	}
	if !strings.HasPrefix(line, "Benchmark") {
		return
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return
	}
	name := f[0]
	// Strip the -<procs> suffix go test appends to parallel-capable names.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	b := Benchmark{Name: strings.TrimPrefix(name, "Benchmark"), Iterations: iters}
	// The rest is value/unit pairs: 123 ns/op, 456 B/op, 7 allocs/op, then
	// custom metrics like 3.14 speedup_vs_sequential.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[f[i+1]] = v
		}
	}
	rep.Benchmarks = append(rep.Benchmarks, b)
}

// derive records each harness's derived block: scale and cluster rows, and
// the cold-vs-incremental session re-analysis speedup when the session
// benchmarks appear (committed as BENCH_session.json).
func derive(rep *Report) {
	byName := map[string]Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	// Scale/<tier> rows (BENCH_scale.json): record each tier's analysis
	// cost per thousand source lines, plus the ladder's superlinearity —
	// the largest tier's per-kloc cost over the smallest's. 1.0 means the
	// analysis scales linearly with program size; the value CI watches.
	type scalePt struct {
		lines, perKloc float64
	}
	var scaleMin, scaleMax *scalePt
	for _, bm := range rep.Benchmarks {
		tier, found := strings.CutPrefix(bm.Name, "Scale/")
		if !found || strings.Contains(tier, "/") {
			continue
		}
		lines := bm.Metrics["lines"]
		analyze := bm.Metrics["analyze_ms"]
		if lines <= 0 {
			continue
		}
		if rep.Derived == nil {
			rep.Derived = map[string]float64{}
		}
		pt := &scalePt{lines: lines, perKloc: analyze / (lines / 1000)}
		rep.Derived["scale_"+tier+"_analyze_ms_per_kloc"] = round2(pt.perKloc)
		if scaleMin == nil || lines < scaleMin.lines {
			scaleMin = pt
		}
		if scaleMax == nil || lines > scaleMax.lines {
			scaleMax = pt
		}
	}
	if scaleMin != nil && scaleMax != scaleMin && scaleMin.perKloc > 0 {
		rep.Derived["scale_analyze_superlinearity"] = round2(scaleMax.perKloc / scaleMin.perKloc)
	}

	// ClusterBatch/<N>w rows (BENCH_cluster.json): the batch fan-out scaling
	// curve. Each N-worker run's virtual makespan (busiest shard's summed
	// source lines under the ring assignment) ratios against the 1-worker
	// run — the acceptance metric batch_scaleup_2w — and the wall-clock
	// ratio rides along for runners with real parallelism.
	if base, ok := byName["ClusterBatch/1w"]; ok {
		for _, bm := range rep.Benchmarks {
			nw, found := strings.CutPrefix(bm.Name, "ClusterBatch/")
			if !found || nw == "1w" || !strings.HasSuffix(nw, "w") {
				continue
			}
			n := strings.TrimSuffix(nw, "w")
			if _, err := strconv.Atoi(n); err != nil {
				continue
			}
			if rep.Derived == nil {
				rep.Derived = map[string]float64{}
			}
			if mk := bm.Metrics["vmakespan_klines"]; mk > 0 {
				rep.Derived["batch_scaleup_"+nw] = round2(base.Metrics["vmakespan_klines"] / mk)
			}
			if bm.NsPerOp > 0 {
				rep.Derived["batch_wall_ratio_"+nw] = round2(base.NsPerOp / bm.NsPerOp)
			}
		}
	}

	cold, okC := byName["SessionColdAnalyze"]
	incr, okI := byName["SessionIncrementalReanalyze"]
	if okC && okI && incr.NsPerOp > 0 {
		if rep.Derived == nil {
			rep.Derived = map[string]float64{}
		}
		rep.Derived["session_incremental_speedup"] = round2(cold.NsPerOp / incr.NsPerOp)
		if incr.AllocsPerOp > 0 {
			rep.Derived["session_incremental_alloc_ratio"] = round2(float64(cold.AllocsPerOp) / float64(incr.AllocsPerOp))
		}
	}
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
