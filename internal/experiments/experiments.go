// Package experiments regenerates every table and figure of the paper's
// evaluation chapters. Each FigN_M function returns a Table whose rows
// parallel the paper's; EXPERIMENTS.md records the measured-vs-paper
// comparison. The tables read Explorer sessions: a profile, a dynamic
// dependence count, a Guru ranking or a machine workload is whatever
// explorer.Session reports for that workload, and a user-assisted row is the
// session after the workload's script went through its assertion checker.
// What is computed here is counting, formatting, and the two memory hints.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"suifx/internal/driver"
	"suifx/internal/explorer"
	"suifx/internal/machine"
	"suifx/internal/workloads"
)

// Table is one reproduced table/figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// cached returns a workload's parsed program and whole-program summary from
// the shared driver cache. The pair is shared between tables (and between
// concurrent table generators): every consumer treats the program and
// analysis as read-only.
func cached(w *workloads.Workload) *driver.Result {
	return driver.Shared().MustAnalyze(w.Name, w.Source, driver.Options{})
}

// compiler is the session options for one compiler configuration; the
// machine and the Guru's cutoffs stay the paper's defaults.
func compiler(reductions, liveness bool) explorer.Options {
	o := explorer.DefaultOptions()
	o.UseReductions, o.UseLiveness = reductions, liveness
	return o
}

// baseCompiler is the compiler of Chapters 4 and 6 and the baseline of
// Chapter 5: reductions on, array liveness off.
var baseCompiler = compiler(true, false)

// open starts an Explorer session on a workload — what a user of the
// product gets, and where every profile, dynamic-dependence count, Guru
// ranking and machine workload in the tables comes from. The session
// branches off the shared driver cache, so the tables that re-visit a
// workload derive its summaries once; the profiling run is per session.
func open(w *workloads.Workload, opts explorer.Options) *explorer.Session {
	s := explorer.NewUnstarted(driver.NewIncrementalFrom(cached(w), driver.Options{}), opts)
	if err := s.Start(); err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
	}
	return s
}

// assist replays the workload's §4.4 script through the session's
// assertion checker, as the user of Chapter 4 typed it.
func assist(s *explorer.Session, w *workloads.Workload) {
	for _, a := range w.Script() {
		var err error
		if a.Independent {
			err = s.AssertIndependent(a.Loop, a.Var)
		} else {
			_, err = s.AssertPrivate(a.Loop, a.Var)
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
		}
	}
}

// userAssisted is the workload's Chapter 4 session after its script.
func userAssisted(w *workloads.Workload) *explorer.Session {
	s := open(w, baseCompiler)
	assist(s, w)
	return s
}

// hinted sets the workload's two paper-metadata memory hints on a machine
// workload — the only modeling input that is not measured by a session.
func hinted(mw machine.Workload, w *workloads.Workload) machine.Workload {
	for i := range mw.Loops {
		lw := &mw.Loops[i]
		if slices.Contains(w.StreamingLoops, lw.ID) {
			lw.Streaming = true
			lw.StreamPasses = lw.Iterations
		}
		lw.ConflictingDecomp = slices.Contains(w.ConflictingDecomp, lw.ID)
	}
	return mw
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
func ms(f float64) string  { return fmt.Sprintf("%.3f ms", f) }
func f1(f float64) string  { return fmt.Sprintf("%.1f", f) }
func itoa(n int) string    { return fmt.Sprintf("%d", n) }
func i64(n int64) string   { return fmt.Sprintf("%d", n) }
