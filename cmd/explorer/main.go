// Command explorer is the interactive SUIF Explorer session (Chapter 2): it
// parallelizes and profiles a program, then takes commands — show the
// Guru's target list, render the Codeview and call graph, compute slices of
// suspect references, and check/apply assertions, re-parallelizing after
// each one.
//
// Usage:
//
//	explorer file.f            interactive session on a MiniF file
//	explorer -workload mdg     session on a built-in workload
//	explorer -connect URL ...  drive a session hosted by a suifxd server
//
// Commands: targets | codeview [loop] | callgraph [proc] | report |
// slice <proc> <var> <line> | cslice <proc> <line> |
// assert private <loop> <var> | assert independent <loop> <var> |
// speedup [procs] | quit
//
// With -connect the session state lives in suifxd's session subsystem: the
// commands map onto the /v1/session routes (targets report assert slice
// cslice why events quit) and assertions re-test the asserted loop
// server-side.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"suifx/internal/explorer"
	"suifx/internal/minif"
	"suifx/internal/slice"
	"suifx/internal/viz"
	"suifx/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "explore a built-in workload")
	script := flag.String("c", "", "semicolon-separated commands to run non-interactively")
	connect := flag.String("connect", "", "drive a session on a suifxd server at this base URL")
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
		fmt.Fprintln(os.Stderr, "usage: explorer [-c commands] [-connect url] file.f | -workload name")
		os.Exit(2)
	}

	if *connect != "" {
		runRemote(*connect, name, src, *wl, *script)
		return
	}

	prog, err := minif.Parse(name, src)
	if err != nil {
		fatal(err)
	}
	sess, err := explorer.NewSession(prog, explorer.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SUIF Explorer: %s loaded (%d lines)\n", name, prog.LineCount(true))
	report(sess)

	run := func(line string) bool { return command(sess, strings.Fields(line)) }
	if *script != "" {
		for _, c := range strings.Split(*script, ";") {
			if !run(strings.TrimSpace(c)) {
				return
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if !run(sc.Text()) {
			return
		}
		fmt.Print("> ")
	}
}

// lastInt parses the last of a command's n words as a number; ok is false
// when the command has another number of words or the last is not a number.
func lastInt(args []string, n int) (v int, ok bool) {
	if len(args) != n {
		return 0, false
	}
	v, err := strconv.Atoi(args[n-1])
	return v, err == nil
}

func report(s *explorer.Session) {
	cov, gran := s.CoverageGranularity()
	fmt.Printf("parallelism coverage: %.0f%%   granularity: %.3f ms\n", cov*100, gran)
}

func command(s *explorer.Session, args []string) bool {
	if len(args) == 0 {
		return true
	}
	switch args[0] {
	case "quit", "exit":
		return false
	case "report":
		report(s)
	case "targets":
		for i, t := range s.Targets() {
			mark := " "
			if t.Important {
				mark = "*"
			}
			fmt.Printf("%s %2d. %-16s coverage %5.1f%%  granularity %7.3f ms  dyn-deps %d  static-deps %d\n",
				mark, i+1, t.ID(), t.CoveragePct, t.GranularityMs, t.DynDeps, t.StaticDeps)
			for _, b := range t.Loop.Dep.Blocking {
				fmt.Printf("       blocked by %s: %s\n", b.Sym.Name, b.Reason)
			}
		}
	case "codeview":
		cv := &viz.Codeview{Prog: s.Prog, Par: s.Par}
		if len(args) > 1 {
			cv.FocusLoop = args[1]
		}
		fmt.Print(cv.Render())
	case "callgraph":
		cg := &viz.CallGraph{Prog: s.Prog}
		if len(args) > 1 {
			cg.Focus = args[1]
		}
		fmt.Print(cg.Render())
	case "slice":
		line, ok := lastInt(args, 4)
		if !ok {
			fmt.Println("usage: slice <proc> <var> <line>")
			break
		}
		sl := slice.New(s.Graph(), slice.Config{Kind: slice.Program})
		res := sl.OfUse(strings.ToUpper(args[1]), strings.ToUpper(args[2]), line)
		showSlice(s, res, line)
	case "cslice":
		line, ok := lastInt(args, 3)
		if !ok {
			fmt.Println("usage: cslice <proc> <line>")
			break
		}
		sl := slice.New(s.Graph(), slice.Config{Kind: slice.Program})
		res := sl.ControlSliceOfLine(strings.ToUpper(args[1]), line)
		showSlice(s, res, line)
	case "assert":
		if len(args) != 4 {
			fmt.Println("usage: assert private|independent <loop> <var>")
			break
		}
		loop, v := strings.ToUpper(args[2]), strings.ToUpper(args[3])
		switch args[1] {
		case "private":
			warnings, err := s.AssertPrivate(loop, v)
			if err != nil {
				fmt.Println("rejected:", err)
				break
			}
			for _, w := range warnings {
				fmt.Println("warning:", w)
			}
			fmt.Println("accepted; re-parallelized")
			report(s)
		case "independent":
			if err := s.AssertIndependent(loop, v); err != nil {
				fmt.Println("rejected:", err)
				break
			}
			fmt.Println("accepted; re-parallelized")
			report(s)
		default:
			fmt.Println("usage: assert private|independent <loop> <var>")
		}
	case "speedup":
		procs, ok := 8, true
		if len(args) > 1 {
			procs, ok = lastInt(args, 2)
		}
		if !ok || procs < 1 {
			fmt.Println("usage: speedup [processors]")
			break
		}
		fmt.Printf("modeled speedup on %d processors (%s): %.1f\n",
			procs, s.Opts.Model.Name, s.Opts.Model.Speedup(s.Workload(), procs))
	default:
		fmt.Println("commands: targets codeview callgraph report slice cslice assert speedup quit")
	}
	return true
}

func showSlice(s *explorer.Session, res *slice.Result, anchor int) {
	lines := res.Lines()
	for proc, m := range lines {
		hl := map[int]bool{}
		lo, hi := 1<<30, 0
		for l := range m {
			hl[l] = true
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		sv := &viz.SourceView{Prog: s.Prog, Highlight: hl, Anchor: anchor, From: lo - 1, To: hi + 1}
		fmt.Printf("--- %s (%d lines in slice)\n%s", proc, len(m), sv.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explorer:", err)
	os.Exit(1)
}
