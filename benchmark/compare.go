package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// spawn runs one workload once in a fresh process — so peak memory and the
// engine counters are that workload's alone — and returns its parsed last
// line. The child's full output goes to echo when non-nil.
func spawn(cfg config, echo io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if echo != nil {
		echo.Write(out.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v, exit: %v)", cfg.workload, err, runErr)
	}
	return &r, nil
}

// runAll runs every workload, each in its own process; with -trace 1 each is
// followed by its traced run.
func runAll(cfg config) int {
	traces := []bool{false}
	if cfg.trace {
		traces = append(traces, true)
	}
	code := 0
	for _, name := range workloadNames {
		for _, trace := range traces {
			c := cfg
			c.workload, c.trace = name, trace
			r, err := spawn(c, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			} else if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

// repeatFile is what -repeat writes and -compare reads.
type repeatFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []repeatRun `json:"runs"`
}

type repeatRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Result   *result `json:"result"`
}

func loadRepeat(path string) (*repeatFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f repeatFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's values over a workload's runs.
func (f *repeatFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

func (f *repeatFile) failShare(workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// runRepeat runs the workload (or all four) k times with seeds seed,
// seed+1, ..., prints each metric's median and interquartile spread the way
// the PR driver computes it, and writes the runs for -compare.
func runRepeat(cfg config, k int) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	file := repeatFile{Seconds: cfg.seconds}
	code := 0
	for _, name := range names {
		for i := 0; i < k; i++ {
			c := cfg
			c.workload, c.seed = name, cfg.seed+int64(i)
			r, err := spawn(c, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d operations failed\n", name, c.seed, r.Failed, r.Attempted)
				code = 1
			}
			file.Runs = append(file.Runs, repeatRun{Workload: name, Seed: c.seed, Result: r})
		}
		fmt.Printf("# %s, %d runs of %g s\n", name, k, cfg.seconds)
		fmt.Printf("%-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, metric := range sortedKeys(file.Runs[len(file.Runs)-1].Result.Metrics) {
			vs := file.values(name, metric)
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("%-34s %14.6g %14.6g %14.6g %7.1f%%\n", label(name, metric), q1, q2, q3, 100*spread(vs))
		}
	}
	path := filepath.Join(cfg.outDir, "repeat-"+cfg.workload+".json")
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(cfg.outDir, 0o755); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	return code
}

// verdict judges one end-to-end metric on one workload: base and change are
// the two sets' values, worse-is-positive after orienting by the metric's
// direction.
func verdict(d metricDef, base, change []float64) string {
	sign := 1.0
	if d.Better == hi {
		sign = -1
	}
	mb, mc := median(base), median(change)
	delta := sign * (mc - mb) / mb // share of the base median by which change is worse
	clear := true                  // every run of one side beats every run of the other
	for _, x := range base {
		for _, y := range change {
			if (sign*(y-x) < 0) != (delta < 0) {
				clear = false
			}
		}
	}
	noisy := spread(base) > d.Bound || spread(change) > d.Bound
	switch {
	case noisy && !clear:
		return "unresolved"
	case delta > d.Bound:
		return "worse"
	case delta < 0 && (clear || -delta > spread(base)):
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (end-to-end metric, workload) judged by
// the bounds in the spec, and returns a non-zero exit code when any row is
// worse or a workload's share of failed operations went up.
func compareFiles(out io.Writer, specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	var a, b *repeatFile
	if err == nil {
		a, err = loadRepeat(pathA)
	}
	if err == nil {
		b, err = loadRepeat(pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-18s %-34s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "change", "delta", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(d, va, vb)
			if v == "worse" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(out, "%-18s %-34s %14.6g %14.6g %+7.1f%% %7.0f%%  %s\n", wl.Name, label(wl.Name, d.Name), ma, mb, 100*(mb-ma)/ma, 100*d.Bound, v)
		}
		if fa, fb := a.failShare(wl.Name), b.failShare(wl.Name); fb > fa {
			fmt.Fprintf(out, "%-18s %-34s %14.6g %14.6g  worse\n", wl.Name, "fail_share", fa, fb)
			code = 1
		}
	}
	return code
}
