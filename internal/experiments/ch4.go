package experiments

import (
	"fmt"
	"sort"

	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/parallel"
	"suifx/internal/region"
	"suifx/internal/slice"
	"suifx/internal/workloads"
)

var ch4Apps = []string{"mdg", "arc3d", "hydro", "flo88"}

// Fig4_1 reproduces "Program information and results of automatic
// parallelization": lines, coverage, granularity and 8-processor speedup
// under the automatic compiler.
func Fig4_1() *Table {
	t := &Table{
		ID:     "Fig 4-1",
		Title:  "Program information and results of automatic parallelization",
		Header: []string{"program", "description", "data set", "lines", "coverage", "granularity", "speedup(8p)"},
	}
	t.Rows = perApp(ch4Apps, func(w *workloads.Workload) []string {
		s := open(w, baseCompiler)
		cov, gran := s.CoverageGranularity()
		return []string{
			w.Name, w.Description, w.DataSet,
			itoa(s.Prog.LineCount(true)),
			pct(cov),
			ms(gran),
			f1(s.Opts.Model.Speedup(hinted(s.Workload(), w), 8)),
		}
	})
	return t
}

// loopCounters tallies the Fig 4-7 loop categories for one app.
type loopCounters struct {
	executed, sequential, important, noDyn, userPar, remaining [2]int // [inter, intra]
}

func idx(inter bool) int {
	if inter {
		return 0
	}
	return 1
}

// fig47For computes the per-app counters from one session: the Guru's
// worklist before any assertion, and the verdicts after the script.
func fig47For(w *workloads.Workload) loopCounters {
	var c loopCounters
	s := open(w, baseCompiler)
	auto, targets := s.Par, s.Targets()
	assist(s, w)
	user := s.Par

	// A loop nested (statically or through calls) under a user-parallelized
	// loop needs no further attention.
	underUser := map[string]bool{}
	for id := range w.UserAssertions {
		if li := user.LoopByID(id); li.Dep.Parallelizable {
			markRegionLoops(li.Region.Body(), underUser)
			for _, p := range s.Prog.Reachable(li.Region.Loop.Body) {
				for _, l := range p.Loops() {
					underUser[l.ID(p.Name)] = true
				}
			}
		}
	}

	nest := func(li *parallel.LoopInfo) int { return idx(s.Sum.Reg.LoopNest(li.Region) == "inter") }
	for _, li := range auto.Ordered {
		if s.Prof.Of(li.Region.Loop) == nil {
			continue // never executed
		}
		k := nest(li)
		c.executed[k]++
		if !li.Dep.Parallelizable {
			c.sequential[k]++
		}
	}
	for _, t := range targets {
		if !t.Important {
			continue
		}
		k := nest(t.Loop)
		c.important[k]++
		if t.DynDeps != 0 {
			continue // real dynamic deps: the user declines these (§2.6)
		}
		c.noDyn[k]++
		_, userPar := w.UserAssertions[t.ID()]
		switch {
		case userPar:
			c.userPar[k]++
		case underUser[t.ID()]:
			// nested inside a user-parallelized loop: no attention needed
		default:
			c.remaining[k]++
		}
	}
	return c
}

// markRegionLoops marks every loop region nested under r.
func markRegionLoops(r *region.Region, set map[string]bool) {
	for _, c := range r.Children {
		if c.Kind == region.LoopRegion {
			set[c.ID()] = true
			markRegionLoops(c.Body(), set)
		}
	}
}

// Fig4_7 reproduces "Number of loops requiring user intervention".
func Fig4_7() *Table {
	t := &Table{
		ID:     "Fig 4-7",
		Title:  "Number of loops requiring user intervention (inter/intra)",
		Header: []string{"category", "mdg", "arc3d", "hydro", "flo88", "total"},
	}
	cs := perApp(ch4Apps, fig47For)
	row := func(label string, get func(c loopCounters) [2]int) {
		cells := []string{label}
		tot := 0
		for _, c := range cs {
			v := get(c)
			cells = append(cells, fmt.Sprintf("%d/%d", v[0], v[1]))
			tot += v[0] + v[1]
		}
		cells = append(cells, itoa(tot))
		t.Rows = append(t.Rows, cells)
	}
	row("executed", func(c loopCounters) [2]int { return c.executed })
	row("sequential", func(c loopCounters) [2]int { return c.sequential })
	row("important", func(c loopCounters) [2]int { return c.important })
	row("important, no dynamic dep", func(c loopCounters) [2]int { return c.noDyn })
	row("user-parallelized", func(c loopCounters) [2]int { return c.userPar })
	row("remaining important", func(c loopCounters) [2]int { return c.remaining })
	t.Notes = append(t.Notes, "cells are inter/intra counts as in the paper's split columns")
	return t
}

// SliceSizes holds one examined loop's Fig 4-8 row.
type SliceSizes struct {
	Loop                               string
	LoopLines                          int
	ProgFull, ProgLoop, ProgCR, ProgAR int
	CtrlFull, CtrlLoop, CtrlCR, CtrlAR int
}

// Fig4_8 reproduces "Average size of the slices requiring intervention":
// program and control slices of the blocking variables' references, as a
// percentage of the loop size, unrestricted / in-loop / code-region- /
// array-restricted.
func Fig4_8() *Table {
	t := &Table{
		ID:     "Fig 4-8",
		Title:  "Slice sizes for user-examined loops (% of loop size)",
		Header: []string{"loop", "lines", "prog full", "prog loop", "prog CR", "prog AR", "ctrl full", "ctrl loop", "ctrl CR", "ctrl AR"},
	}
	var sum SliceSizes
	n := 0
	for _, rows := range perApp(ch4Apps, sliceSizesFor) {
		for _, r := range rows {
			loopPct := func(v int) string {
				if r.LoopLines == 0 {
					return "-"
				}
				return fmt.Sprintf("%d%%", v*100/r.LoopLines)
			}
			t.Rows = append(t.Rows, []string{
				r.Loop, itoa(r.LoopLines),
				itoa(r.ProgFull), loopPct(r.ProgLoop), loopPct(r.ProgCR), loopPct(r.ProgAR),
				itoa(r.CtrlFull), loopPct(r.CtrlLoop), loopPct(r.CtrlCR), loopPct(r.CtrlAR),
			})
			sum.LoopLines += r.LoopLines
			sum.ProgLoop += r.ProgLoop
			sum.ProgCR += r.ProgCR
			sum.ProgAR += r.ProgAR
			sum.CtrlLoop += r.CtrlLoop
			sum.CtrlCR += r.CtrlCR
			sum.CtrlAR += r.CtrlAR
			n++
		}
	}
	if n > 0 && sum.LoopLines > 0 {
		t.Rows = append(t.Rows, []string{
			"average", itoa(sum.LoopLines / n), "",
			fmt.Sprintf("%d%%", sum.ProgLoop*100/sum.LoopLines),
			fmt.Sprintf("%d%%", sum.ProgCR*100/sum.LoopLines),
			fmt.Sprintf("%d%%", sum.ProgAR*100/sum.LoopLines),
			"",
			fmt.Sprintf("%d%%", sum.CtrlLoop*100/sum.LoopLines),
			fmt.Sprintf("%d%%", sum.CtrlCR*100/sum.LoopLines),
			fmt.Sprintf("%d%%", sum.CtrlAR*100/sum.LoopLines),
		})
	}
	return t
}

// sliceSizesFor computes the slice metrics for each user-examined loop.
func sliceSizesFor(w *workloads.Workload) []SliceSizes {
	s := open(w, baseCompiler)
	prog, g := s.Prog, s.Graph()
	var out []SliceSizes
	var ids []string
	for id := range w.UserAssertions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		li := s.Par.LoopByID(id)
		if li == nil {
			continue
		}
		lo, hi := li.Region.Lines()
		rg := slice.Region{Proc: li.Region.Proc.Name, Lo: lo, Hi: hi}
		row := SliceSizes{Loop: id, LoopLines: loopCodeLines(prog, li)}
		// Up to two lines of the loop that read each blocking variable's
		// storage (the paper shows the pair sharing the dependence; writes
		// alone have no use to slice); metrics are averaged over the
		// references examined.
		nq := 0
		for _, b := range li.Dep.Blocking {
			name := li.Region.Proc.Own(b.Sym).Name
			lines := ir.ReadLines(li.Region.Loop.Body, b.Sym)
			for _, ln := range lines[:min(len(lines), 2)] {
				nq++
				full := slice.New(g, slice.Config{Kind: slice.Program})
				r := full.OfUse(rg.Proc, name, ln)
				row.ProgFull += r.Size()
				row.ProgLoop += r.SizeIn(rg)
				cr := slice.New(g, slice.Config{Kind: slice.Program, Region: &rg})
				row.ProgCR += cr.OfUse(rg.Proc, name, ln).SizeIn(rg)
				ar := slice.New(g, slice.Config{Kind: slice.Program, Region: &rg, ArrayRestricted: true})
				row.ProgAR += ar.OfUse(rg.Proc, name, ln).SizeIn(rg)

				cfull := slice.New(g, slice.Config{Kind: slice.Program})
				c := cfull.ControlSliceOfLine(rg.Proc, ln)
				row.CtrlFull += c.Size()
				row.CtrlLoop += c.SizeIn(rg)
				ccr := slice.New(g, slice.Config{Kind: slice.Program, Region: &rg})
				row.CtrlCR += ccr.ControlSliceOfLine(rg.Proc, ln).SizeIn(rg)
				car := slice.New(g, slice.Config{Kind: slice.Program, Region: &rg, ArrayRestricted: true})
				row.CtrlAR += car.ControlSliceOfLine(rg.Proc, ln).SizeIn(rg)
			}
		}
		if nq > 1 {
			row.ProgFull /= nq
			row.ProgLoop /= nq
			row.ProgCR /= nq
			row.ProgAR /= nq
			row.CtrlFull /= nq
			row.CtrlLoop /= nq
			row.CtrlCR /= nq
			row.CtrlAR /= nq
		}
		out = append(out, row)
	}
	return out
}

// loopCodeLines counts code lines in the loop plus its (transitive) callees.
func loopCodeLines(prog *ir.Program, li *parallel.LoopInfo) int {
	lo, hi := li.Region.Lines()
	n := 0
	for l := lo; l <= hi; l++ {
		if prog.SourceLine(l) != "" {
			n++
		}
	}
	for _, p := range prog.Reachable(li.Region.Loop.Body) {
		n += p.EndLine - p.Pos.Line + 1
	}
	return n
}

// Fig4_9 reproduces "User-assisted parallelization": how many variables the
// compiler resolved automatically vs how many the user asserted, across the
// user-parallelized loops.
func Fig4_9() *Table {
	t := &Table{
		ID:     "Fig 4-9",
		Title:  "Variables analyzed automatically vs by the user in user-parallelized loops",
		Header: []string{"category", "mdg", "arc3d", "hydro", "flo88", "total"},
	}
	cats := [][2]string{ // row label, parallel.VarCounts key
		{"parallel arrays", "parallel array"},
		{"privatizable arrays", "private array"},
		{"privatizable scalars", "private scalar"},
		{"reduction arrays", "reduction array"},
		{"reduction scalars", "reduction scalar"},
		{"user privatizable arrays", "user private array"},
		{"user privatizable scalars", "user private scalar"},
	}
	all := perApp(ch4Apps, func(w *workloads.Workload) map[string]int {
		res := userAssisted(w).Par
		var loops []*parallel.LoopInfo
		for id := range w.UserAssertions {
			loops = append(loops, res.LoopByID(id))
		}
		return parallel.VarCounts(loops)
	})
	for _, cat := range cats {
		row := []string{cat[0]}
		tot := 0
		for i := range ch4Apps {
			row = append(row, itoa(all[i][cat[1]]))
			tot += all[i][cat[1]]
		}
		row = append(row, itoa(tot))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig4_10 reproduces "Results of parallelization with and without user
// intervention".
func Fig4_10() *Table {
	t := &Table{
		ID:     "Fig 4-10",
		Title:  "Parallelization with and without user input",
		Header: []string{"program", "mode", "coverage", "granularity", "speedup(4p)", "speedup(8p)"},
	}
	rows := perApp(ch4Apps, func(w *workloads.Workload) [][]string {
		s := open(w, baseCompiler)
		row := func(mode string) []string {
			cov, gran := s.CoverageGranularity()
			mw := hinted(s.Workload(), w)
			return []string{
				w.Name, mode, pct(cov), ms(gran),
				f1(s.Opts.Model.Speedup(mw, 4)),
				f1(s.Opts.Model.Speedup(mw, 8)),
			}
		}
		auto := row("automatic")
		assist(s, w)
		return [][]string{auto, row("with user input")}
	})
	for _, r := range rows {
		t.Rows = append(t.Rows, r...)
	}
	return t
}

// ValidateUserParallelization executes each user-parallelized application
// both sequentially and with the goroutine runtime on the asserted plan, and
// checks the results agree (the §6.5.2 validation). Both runs share one
// cached program: each interpreter owns its arena, the IR is never written.
func ValidateUserParallelization(name string, workers int) error {
	return validateParallelRun(name, workers, exec.ModeAuto, true)
}
