// Command explorer is the interactive SUIF Explorer session (Chapter 2): it
// parallelizes and profiles a program, then holds the Guru dialogue — show
// the ranked target list, explain a loop's verdict, compute slices of
// suspect references, and check/apply assertions, re-testing the asserted
// loop after each one.
//
// Usage:
//
//	explorer file.f            interactive session on a MiniF file
//	explorer -workload mdg     session on a built-in workload
//	explorer -connect URL ...  the same session hosted by a suifxd server
//	explorer -c "cmd; cmd" ... run a script, echoing each command after "> "
//
// Commands, the same in both modes:
//
//	report                         program coverage and granularity
//	targets                        the Guru's ranked loops and their blockers
//	why <loop>                     a loop's verdict and its annotated source
//	slice <proc> <var> <line>      program slice of a reference
//	cslice <proc> <line>           control slice of a statement
//	assert private <loop> <var>    assert a variable private in a loop
//	assert independent <loop> <var>
//	callgraph [proc]               call graph, focused on proc
//	events                         the session's dialogue log
//	quit
//
// Locally the session is run in-process by the code suifxd runs; with
// -connect it lives on the server and the commands map onto the
// /v1/session routes. Either way the interpreter prints only from the
// session records that cross the wire, plus the program source it read.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"suifx/internal/explorer"
	"suifx/internal/minif"
	"suifx/internal/session"
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

	var d dialogue
	var info session.Info
	var err error
	if *connect != "" {
		d, info, err = dial(*connect, name, src, *wl)
	} else {
		d, info, err = openLocal(name, src)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SUIF Explorer: %s (%d loops)", info.Program, info.Loops)
	if *connect != "" {
		fmt.Printf(" on %s, session %s", *connect, info.ID)
	}
	fmt.Println()
	(&console{w: os.Stdout, d: d, name: name, src: src}).run(*script, os.Stdin)
}

// dialogue is a Guru session as the interpreter sees it: every answer is a
// record that crosses the suifxd wire, so a local session and a remote one
// are interchangeable.
type dialogue interface {
	Guru() (*session.GuruReport, error)
	Assert(kind, loop, v string) (*session.AssertOutcome, error)
	Why(loop string) (*explorer.WhyReport, error)
	Slice(kind, proc, v string, line int) (*session.SliceReport, error)
	Events() ([]session.Event, error)
	Close() error
}

// local is a session run in-process by the session manager suifxd uses,
// under the same defaults (among them the profiling budget
// session.DefaultMaxOps).
type local struct{ s *session.Session }

// openLocal creates the session and then closes its manager: that stops the
// idle janitor, so a user who pauses is never evicted, and the session
// itself keeps answering.
func openLocal(name, src string) (local, session.Info, error) {
	m := session.NewManager(session.Config{})
	defer m.Close()
	s, err := m.Create(context.Background(), name, src, session.Options{})
	if err != nil {
		return local{}, session.Info{}, err
	}
	return local{s}, s.Info(), nil
}

func (l local) Guru() (*session.GuruReport, error) { return l.s.Guru(), nil }
func (l local) Assert(kind, loop, v string) (*session.AssertOutcome, error) {
	return l.s.Assert(kind, loop, v)
}
func (l local) Why(loop string) (*explorer.WhyReport, error) { return l.s.Why(loop) }
func (l local) Slice(kind, proc, v string, line int) (*session.SliceReport, error) {
	return l.s.Slice(kind, proc, v, line)
}
func (l local) Events() ([]session.Event, error) { return l.s.Events(0), nil }
func (l local) Close() error                     { return nil }

// console is the one Guru interpreter of both modes.
type console struct {
	w         io.Writer
	d         dialogue
	name, src string // the program, for the call graph and annotated source
}

// run prints the opening report, then runs commands until quit or the end of
// the input, and closes the dialogue. A non-empty script supplies the
// commands, separated by semicolons, each echoed after "> " so the output
// reads as a transcript; otherwise they are read from in, one per line,
// after a "> " prompt.
func (c *console) run(script string, in io.Reader) {
	c.command([]string{"report"})
	echo := script != ""
	if echo {
		in = strings.NewReader(strings.ReplaceAll(script, ";", "\n"))
	}
	sc := bufio.NewScanner(in)
	for {
		if !echo {
			fmt.Fprint(c.w, "> ")
		}
		if !sc.Scan() {
			break
		}
		args := strings.Fields(sc.Text())
		if echo && len(args) > 0 {
			fmt.Fprintf(c.w, "> %s\n", strings.Join(args, " "))
		}
		if !c.command(args) {
			break
		}
	}
	if err := c.d.Close(); err != nil {
		fmt.Fprintln(c.w, "warning:", err)
	}
}

// command runs one command and reports whether the dialogue goes on.
func (c *console) command(args []string) bool {
	if len(args) == 0 {
		return true
	}
	w := c.w
	switch args[0] {
	case "quit", "exit":
		return false
	case "report", "targets":
		g, err := c.d.Guru()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		if args[0] == "report" {
			report(w, g)
			break
		}
		for i, t := range g.Targets {
			mark := " "
			if t.Important {
				mark = "*"
			}
			fmt.Fprintf(w, "%s %2d. %-16s coverage %5.1f%%  granularity %7.3f ms  dyn-deps %d  static-deps %d\n",
				mark, i+1, t.Loop, t.CoveragePct, t.GranularityMs, t.DynDeps, t.StaticDeps)
			for _, b := range t.Blocking {
				fmt.Fprintf(w, "       blocked by %s: %s\n", b.Var, b.Reason)
			}
		}
	case "why":
		if len(args) != 2 {
			fmt.Fprintln(w, "usage: why <loop>")
			break
		}
		r, err := c.d.Why(strings.ToUpper(args[1]))
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		fmt.Fprintf(w, "%s (%s, lines %d-%d): %s\n", r.LoopID, r.Proc, r.Lines[0], r.Lines[1], r.Verdict)
		fmt.Fprintf(w, "  coverage %.1f%%  granularity %.3f ms  dyn-deps %d\n", r.CoveragePct, r.GranularityMs, r.DynDeps)
		for _, b := range r.Blocking {
			fmt.Fprintf(w, "  %s: %s (lines %v, dynamic deps %d)\n", b.Var, b.Reason, b.Lines, b.DynDeps)
		}
		for _, l := range r.Source {
			mark := " "
			if l.Blocked {
				mark = "*"
			}
			fmt.Fprintf(w, "%s%5d %s\n", mark, l.Line, l.Text)
		}
	case "slice", "cslice":
		kind, proc, v, line, ok := sliceArgs(args)
		if !ok {
			fmt.Fprintln(w, "usage: slice <proc> <var> <line> | cslice <proc> <line>")
			break
		}
		rep, err := c.d.Slice(kind, proc, v, line)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		showSlice(w, strings.Split(c.src, "\n"), rep.Procs, line)
	case "assert":
		if len(args) != 4 || (args[1] != session.KindPrivate && args[1] != session.KindIndependent) {
			fmt.Fprintln(w, "usage: assert private|independent <loop> <var>")
			break
		}
		out, err := c.d.Assert(args[1], strings.ToUpper(args[2]), strings.ToUpper(args[3]))
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		if !out.Accepted {
			fmt.Fprintf(w, "rejected (%s): %s\n", out.Code, out.Reason)
			break
		}
		for _, warning := range out.Warnings {
			fmt.Fprintln(w, "warning:", warning)
		}
		fmt.Fprintf(w, "accepted; re-tested %s\n", out.Loop)
		report(w, out.Guru)
	case "callgraph":
		prog, err := minif.Parse(c.name, c.src)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		cg := &viz.CallGraph{Prog: prog}
		if len(args) > 1 {
			cg.Focus = strings.ToUpper(args[1])
		}
		fmt.Fprint(w, cg.Render())
	case "events":
		events, err := c.d.Events()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		for _, e := range events {
			fmt.Fprintf(w, "%3d %-16s %s\n", e.Seq, e.Kind, e.Detail)
		}
	default:
		fmt.Fprintln(w, "commands: report targets why slice cslice assert callgraph events quit")
	}
	return true
}

func report(w io.Writer, g *session.GuruReport) {
	fmt.Fprintf(w, "parallelism coverage: %.0f%%   granularity: %.3f ms\n", g.Coverage*100, g.GranularityMs)
}

// sliceArgs parses "slice <proc> <var> <line>" and "cslice <proc> <line>".
func sliceArgs(args []string) (kind, proc, v string, line int, ok bool) {
	line, err := strconv.Atoi(args[len(args)-1])
	switch {
	case err == nil && args[0] == "slice" && len(args) == 4:
		return "program", args[1], args[2], line, true
	case err == nil && args[0] == "cslice" && len(args) == 3:
		return "control", args[1], "", line, true
	}
	return "", "", "", 0, false
}

// showSlice prints a slice procedure by procedure in name order, each as
// annotated source around its lines.
func showSlice(w io.Writer, src []string, procs map[string][]int, anchor int) {
	names := make([]string, 0, len(procs))
	for proc := range procs {
		names = append(names, proc)
	}
	sort.Strings(names)
	for _, proc := range names {
		lines := procs[proc]
		if len(lines) == 0 {
			continue
		}
		hl := map[int]bool{}
		for _, l := range lines {
			hl[l] = true
		}
		sv := &viz.SourceView{Source: src, Highlight: hl, Anchor: anchor, From: lines[0] - 1, To: lines[len(lines)-1] + 1}
		fmt.Fprintf(w, "--- %s (%d lines in slice)\n%s", proc, len(lines), sv.Render())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explorer:", err)
	os.Exit(1)
}
