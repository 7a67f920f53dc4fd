// Command suifpar is the batch automatic parallelizer: it analyzes a MiniF
// source file and prints it annotated, above every DO header, with the
// loop's parallelization verdict and the classification of its variables
// as a directive line — the §2.4 compiler in report form.
//
// Usage:
//
//	suifpar [-noreductions] [-liveness] [-workers n] file.f
//	suifpar -workload mdg
//	suifpar -auto [-budget n] [-depth d] [-machine alpha] -workload mdg
//	suifpar -connect URL ...   the same report, analyzed by a suifxd server
//
// With -auto it additionally runs the tuning search: every approved nest's
// strategy space (worker count × interchange depth) is executed under
// virtual time and scored with the machine cost model, and the winning plan
// is reported per nest.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"suifx/internal/driver"
	"suifx/internal/liveness"
	"suifx/internal/machine"
	"suifx/internal/parallel"
	"suifx/internal/tune"
	"suifx/internal/viz"
	"suifx/internal/workloads"
)

func main() {
	noRed := flag.Bool("noreductions", false, "disable reduction recognition")
	useLive := flag.Bool("liveness", false, "enable the Chapter 5 array liveness analysis")
	wl := flag.String("workload", "", "analyze a built-in workload instead of a file")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	auto := flag.Bool("auto", false, "run the auto-tuning parallelization search over the approved loops")
	budget := flag.Int("budget", 0, "auto: max plan executions (0 = unlimited)")
	depth := flag.Int("depth", 1, "auto: max interchange depth to search")
	machName := flag.String("machine", "alpha", "auto: cost model (alpha, challenge, origin)")
	asJSON := flag.Bool("json", false, "auto: emit the full tune report as JSON")
	connect := flag.String("connect", "",
		"run the analysis on a suifxd server (or cluster coordinator) at this base URL instead of locally")
	flag.Parse()

	var name, src string
	switch {
	case *wl != "":
		w, ok := workloads.Lookup(*wl)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			os.Exit(2)
		}
		name, src = w.Name, w.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		name, src = flag.Arg(0), string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: suifpar [-noreductions] [-liveness] file.f | -workload name")
		os.Exit(2)
	}

	if *auto && (*noRed || *useLive) {
		// -auto tunes the default compiler's plan, locally and on a server.
		fmt.Fprintln(os.Stderr, "usage: suifpar -auto takes neither -noreductions nor -liveness")
		os.Exit(2)
	}

	// The context-aware cache path: Ctrl-C abandons queued SCC waves
	// instead of running the analysis to completion, and repeated runs in
	// one process (tests, future REPL use) share summaries.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *connect != "" {
		err := runConnect(ctx, connectOpts{
			base: *connect, name: name, src: src, workload: *wl,
			noRed: *noRed, liveness: *useLive, workers: *workers,
			auto: *auto, budget: *budget, depth: *depth,
			machine: *machName, asJSON: *asJSON,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	res0, err := driver.Shared().AnalyzeCtx(ctx, name, src, driver.Options{Workers: *workers})
	if err != nil {
		fatal(err)
	}
	sum := res0.Sum
	cfg := parallel.Config{UseReductions: !*noRed}
	if *useLive {
		cfg.DeadAtExit = liveness.Analyze(sum, liveness.Full).Oracle()
	}
	res := parallel.ParallelizeWith(sum, cfg)

	if *auto {
		if err := runAuto(ctx, res, *budget, *depth, *machName, *asJSON); err != nil {
			fatal(err)
		}
		return
	}
	printVerdicts(name, src, res.Stats(), res.Verdicts())
}

// printVerdicts is the report of both modes: the stats header, then the
// source with each loop's verdict as directive lines above its DO header.
func printVerdicts(name, src string, st parallel.Stats, loops []parallel.LoopVerdict) {
	fmt.Printf("%s: %d loops, %d parallelizable (%d need reductions), %d sequential\n\n",
		name, st.TotalLoops, st.ParallelizableN, st.WithReductionN, st.SequentialN)
	fmt.Print((&viz.SourceView{Source: strings.Split(src, "\n"), Verdicts: loops}).Render())
}

// runAuto executes the tuning search and prints the winning plan per nest.
func runAuto(ctx context.Context, res *parallel.Result, budget, depth int, machName string, asJSON bool) error {
	model, ok := machine.ByName(machName)
	if !ok {
		return fmt.Errorf("unknown machine %q (want alpha, challenge or origin)", machName)
	}
	rep, err := tune.Search(ctx, res, tune.Config{
		MaxRuns:  budget,
		MaxDepth: depth,
		Model:    model,
	})
	if err != nil {
		return err
	}
	return printTuneReport(res.Prog.Name, rep, asJSON)
}

// printTuneReport renders a tune report — computed locally or decoded from a
// server's /v1/tune response — as the per-nest winners table.
func printTuneReport(progName string, rep *tune.Report, asJSON bool) error {
	if asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		os.Stdout.Write(append(data, '\n'))
		return nil
	}
	fmt.Printf("%s: tuned %d nests in %d runs (%d variants scored, %d pruned)\n",
		progName, len(rep.Loops), rep.Runs, rep.Searched, rep.Pruned)
	if rep.BudgetExhausted {
		fmt.Println("  search budget exhausted: unexecuted variants counted as pruned")
	}
	fmt.Printf("  machine %s, default plan %dw\n\n", rep.Machine, rep.DefaultWorkers)
	fmt.Printf("%-20s %8s  %-28s %10s\n", "NEST", "SEQ OPS", "CHOSEN PLAN", "SPEEDUP")
	for _, lr := range rep.Loops {
		plan := "sequential (parallel loses)"
		if lr.Chosen.Workers > 1 {
			plan = fmt.Sprintf("%dw", lr.Chosen.Workers)
			if lr.Chosen.Depth > 0 {
				plan += fmt.Sprintf("/d%d", lr.Chosen.Depth)
			}
		}
		fmt.Printf("%-20s %8d  %-28s %9.2fx\n", lr.ID, lr.SeqOps, plan, lr.Speedup)
	}
	fmt.Printf("\nwhole program: %.2fx modeled speedup over the default plan\n", rep.Speedup)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "suifpar:", err)
	os.Exit(1)
}
