package experiments

import (
	"sort"

	"suifx/internal/machine"
	"suifx/internal/parallel"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// ch6Apps are the twelve programs on which parallel reductions have an
// impact (Figs 6-4..6-7).
var ch6Apps = []string{
	"su2cor", "nasa7", "ora", "mdljdp2",
	"appbt", "applu", "appsp", "cgm", "embar", "mgrid",
	"bdna", "trfd",
}

// Fig6_1 reproduces the machine-characteristics table.
func Fig6_1() *Table {
	t := &Table{
		ID:     "Fig 6-1",
		Title:  "Characteristics of the multiprocessor models",
		Header: []string{"machine", "processors", "clock (MHz)", "cache (elems)", "interconnect"},
	}
	for _, m := range []*machine.Model{machine.SGIChallenge(), machine.SGIOrigin(), machine.AlphaServer8400()} {
		ic := "shared bus"
		if m.BusPenalty == 0 {
			ic = "scalable interconnect"
		}
		t.Rows = append(t.Rows, []string{m.Name, itoa(m.Procs), f1(m.ClockMHz), i64(m.CacheElems), ic})
	}
	return t
}

// Fig6_2 reproduces the static census of reductions by operation type over
// the SPEC92-style suite.
func Fig6_2() *Table {
	t := &Table{
		ID:     "Fig 6-2",
		Title:  "Reductions by operation type (SPEC92-style suite, static counts)",
		Header: []string{"operation", "scalar", "array"},
	}
	tot := map[string]int{}
	for _, w := range workloads.Suite("spec92") {
		for k, n := range summary.CountReductionStatements(w.Program()) {
			tot[k] += n
		}
	}
	for _, op := range []string{"+", "*", "MIN", "MAX"} {
		t.Rows = append(t.Rows, []string{op, itoa(tot[op+" scalar"]), itoa(tot[op+" array"])})
	}
	return t
}

// Fig6_3 reproduces the NAS/Perfect program-information table.
func Fig6_3() *Table {
	t := &Table{
		ID:     "Fig 6-3",
		Title:  "Program information (NAS and Perfect Club style suites)",
		Header: []string{"program", "suite", "description", "lines"},
	}
	var ws []*workloads.Workload
	ws = append(ws, workloads.Suite("nas")...)
	ws = append(ws, workloads.Suite("perfect")...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Name < ws[j].Name })
	for _, w := range ws {
		t.Rows = append(t.Rows, []string{w.Name, w.Suite, w.Description, itoa(w.Program().LineCount(true))})
	}
	return t
}

// Fig6_4 reproduces the static impact of reduction recognition: how many
// loops parallelize without and with it.
func Fig6_4() *Table {
	t := &Table{
		ID:     "Fig 6-4",
		Title:  "Impact of reductions (static): parallelizable loops without/with recognition",
		Header: []string{"program", "loops", "parallel w/o red", "parallel w/ red", "red loops"},
	}
	for _, name := range ch6Apps {
		w := workloads.ByName(name)
		sum := cached(w).Sum
		without := parallel.ParallelizeWith(sum, parallel.Config{UseReductions: false}).Stats()
		with := parallel.ParallelizeWith(sum, parallel.Config{UseReductions: true}).Stats()
		t.Rows = append(t.Rows, []string{
			name, itoa(with.TotalLoops),
			itoa(without.ParallelizableN), itoa(with.ParallelizableN),
			itoa(with.WithReductionN),
		})
	}
	return t
}

// Fig6_5 reproduces coverage and granularity with reductions enabled on the
// twelve impacted programs.
func Fig6_5() *Table {
	t := &Table{
		ID:     "Fig 6-5",
		Title:  "Coverage and granularity with parallel reductions",
		Header: []string{"program", "coverage w/o red", "coverage w/ red", "granularity w/ red"},
	}
	model := machine.SGIChallenge()
	runs := perApp(ch6Apps, withWithoutReductions)
	for i, name := range ch6Apps {
		without, with := runs[i][0], runs[i][1]
		t.Rows = append(t.Rows, []string{
			name,
			pct(model.Coverage(without)),
			pct(model.Coverage(with)),
			ms(model.GranularityMs(with)),
		})
	}
	return t
}

// fig66On builds the reduction speedup table for one machine model.
func fig66On(id string, m *machine.Model, procs int) *Table {
	t := &Table{
		ID:     id,
		Title:  "Performance improvement due to reduction analysis on " + m.Name,
		Header: []string{"program", "speedup w/o red", "speedup w/ red"},
	}
	runs := perApp(ch6Apps, withWithoutReductions)
	for i, name := range ch6Apps {
		without, with := runs[i][0], runs[i][1]
		t.Rows = append(t.Rows, []string{
			name,
			f1(m.Speedup(without, procs)),
			f1(m.Speedup(with, procs)),
		})
	}
	return t
}

// withWithoutReductions is one workload's session under the base compiler
// with reductions off and on, as machine workloads: [0] = without, [1] = with.
func withWithoutReductions(w *workloads.Workload) [2]machine.Workload {
	return [2]machine.Workload{
		hinted(open(w, compiler(false, false)).Workload(), w),
		hinted(open(w, baseCompiler).Workload(), w),
	}
}

// Fig6_6 reproduces the 4-processor SGI Challenge reduction speedups.
func Fig6_6() *Table { return fig66On("Fig 6-6", machine.SGIChallenge(), 4) }

// Fig6_7 reproduces the 4-processor SGI Origin reduction speedups.
func Fig6_7() *Table { return fig66On("Fig 6-7", machine.SGIOrigin(), 4) }
