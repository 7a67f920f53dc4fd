// Command benchmark is the repository's one layered benchmark: four
// closed-loop workloads over the suifx layers, measured from outside (no
// edits under internal/). See README.md for the metric and workload
// glossary; BENCHMARK.json at the repository root is the contract the PR
// driver runs it under.
//
//	benchmark -workload <name> [-seed N] [-seconds S] [-trace 0|1]
//	benchmark -workload all [-trace 1]   every workload, fresh process each
//	benchmark -workload <name> -repeat K  K fresh-process runs, spread per metric
//	benchmark -compare A.json B.json      judge two -repeat outputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func newWorkload(cfg config) workload {
	switch cfg.workload {
	case wlBatch:
		return &batchWL{}
	case wlSession:
		return &sessionWL{}
	case wlExec:
		return &execWL{}
	case wlServe:
		return &serveWL{}
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "one of batch-20k, session-dialogue, exec-run, serve-mix, or all")
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed; 0 reproduces the frozen corpus ladder and the 9000+ hot-set seeds")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measuring window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, sidecars and a span file under -out")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace and -repeat files")
	repeat := flag.Int("repeat", 0, "run the workload this many times in fresh processes (seeds seed, seed+1, ...) and print each metric's spread")
	compare := flag.Bool("compare", false, "compare two -repeat files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()
	cfg.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}
	if cfg.seconds <= 0 {
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			fatalf("no -seconds given and %v", err)
		}
		cfg.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *repeat > 0:
		os.Exit(runRepeat(cfg, *repeat))
	case cfg.workload == "all":
		os.Exit(runAll(cfg))
	}
	w := newWorkload(cfg)
	if w == nil {
		fatalf("unknown -workload %q (want one of %v, or all)", cfg.workload, workloadNames)
	}
	r, err := run(cfg, w)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(cfg, r)
	if !r.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// printResult prints every metric by name with its unit and sample count,
// then the contract's one-line JSON result.
func printResult(cfg config, r *result) {
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, row := range r.rows {
		fmt.Printf("%-34s %14.6g %-12s n=%d\n", label(cfg.workload, row.name), row.value, row.unit, row.samples)
	}
	for _, f := range r.fails {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("# attempted %d failed %d fail_share %.6g\n", r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	line, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", line)
}
