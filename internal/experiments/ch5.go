package experiments

import (
	"fmt"
	"time"

	"suifx/internal/explorer"
	"suifx/internal/liveness"
	"suifx/internal/machine"
	"suifx/internal/parallel"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

var ch5Apps = []string{"hydro", "flo88", "arc3d", "wave5", "hydro2d"}

// Fig5_5 reproduces the liveness-suite program information table.
func Fig5_5() *Table {
	t := &Table{
		ID:     "Fig 5-5",
		Title:  "Program information (liveness suite)",
		Header: []string{"program", "description", "lines"},
	}
	for _, name := range ch5Apps {
		w := workloads.ByName(name)
		t.Rows = append(t.Rows, []string{name, w.Description, itoa(w.Program().LineCount(true))})
	}
	return t
}

// Fig5_6 reproduces the analysis running-time table: base, bottom-up, and
// the three top-down liveness variants (measured on this machine; the paper
// used a 300-MHz AlphaServer, so compare shapes, not absolute times).
func Fig5_6() *Table {
	t := &Table{
		ID:     "Fig 5-6",
		Title:  "Interprocedural analysis running time (ms on this host)",
		Header: []string{"program", "base", "bottom-up", "flow-insensitive", "1-bit", "full"},
	}
	for _, name := range ch5Apps {
		w := workloads.ByName(name)
		prog := w.Fresh()

		t0 := time.Now()
		sumBase := summary.Analyze(prog) // scalar+array bottom-up pass
		base := time.Since(t0)

		t1 := time.Now()
		parallel.ParallelizeWith(sumBase, parallel.Config{UseReductions: true})
		bottomUp := base + time.Since(t1)

		variantTime := func(v liveness.Variant) time.Duration {
			t2 := time.Now()
			liveness.Analyze(sumBase, v)
			return bottomUp + time.Since(t2)
		}
		fi := variantTime(liveness.FlowInsensitive)
		ob := variantTime(liveness.OneBit)
		fu := variantTime(liveness.Full)
		msOf := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }
		t.Rows = append(t.Rows, []string{name, msOf(base), msOf(bottomUp), msOf(fi), msOf(ob), msOf(fu)})
	}
	t.Notes = append(t.Notes, "each column is cumulative (analysis phase included in the next), as in the paper")
	return t
}

// Fig5_7 reproduces "loops, modified variables, and percentage dead at loop
// exits" per liveness variant.
func Fig5_7() *Table {
	t := &Table{
		ID:     "Fig 5-7",
		Title:  "Modified arrays dead at loop exits per algorithm variant",
		Header: []string{"program", "#loops", "#mod arrays", "%dead FI", "%dead 1-bit", "%dead full"},
	}
	for _, name := range ch5Apps {
		w := workloads.ByName(name)
		sum := cached(w).Sum
		var row []string
		row = append(row, name)
		first := true
		var loops, mods int
		var pcts []string
		for _, v := range []liveness.Variant{liveness.FlowInsensitive, liveness.OneBit, liveness.Full} {
			in := liveness.Analyze(sum, v)
			l, m, d := in.DeadStats()
			if first {
				loops, mods = l, m
				first = false
			}
			if m == 0 {
				pcts = append(pcts, "0%")
			} else {
				pcts = append(pcts, fmt.Sprintf("%d%%", d*100/m))
			}
		}
		row = append(row, itoa(loops), itoa(mods))
		row = append(row, pcts...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5_8 reproduces "dead private arrays, improved parallel loops, and
// 4-processor speedup" for the base compiler and each liveness variant.
func Fig5_8() *Table {
	t := &Table{
		ID:     "Fig 5-8",
		Title:  "Privatization with liveness: dead privates, newly parallel loops, 4-proc speedup",
		Header: []string{"program", "config", "#dead private", "#new parallel loops", "speedup(4p)"},
	}
	model := machine.AlphaServer8400()
	rowsPer := perApp(ch5Apps, func(w *workloads.Workload) [][]string {
		base := open(w, baseCompiler)
		baseN := base.Par.Stats().ParallelizableN
		rows := [][]string{{w.Name, "base", "0", "0", f1(model.Speedup(hinted(base.Workload(), w), 4))}}
		// A session runs no liveness but the full one, so the weaker oracles
		// are costed outside it, over the base session's summaries and profile.
		for _, v := range []liveness.Variant{liveness.FlowInsensitive, liveness.OneBit, liveness.Full} {
			live := liveness.Analyze(base.Sum, v)
			par := parallel.ParallelizeWith(base.Sum, parallel.Config{UseReductions: true, DeadAtExit: live.Oracle()})
			mw := hinted(explorer.WorkloadOf(par, base.Prof), w)
			rows = append(rows, []string{
				w.Name, v.String(), itoa(countDeadPrivates(par, live)),
				itoa(max(0, par.Stats().ParallelizableN-baseN)),
				f1(model.Speedup(mw, 4)),
			})
		}
		return rows
	})
	for _, rows := range rowsPer {
		t.Rows = append(t.Rows, rows...)
	}
	return t
}

// countDeadPrivates counts privatized arrays that the liveness variant
// proves dead at their loop's exit.
func countDeadPrivates(par *parallel.Result, live *liveness.Info) int {
	n := 0
	for _, li := range par.Ordered {
		for _, vr := range li.Dep.Vars {
			if vr.Class.String() == "private" && vr.Sym.IsArray() &&
				live.DeadAtExit(li.Region, vr.Sym) {
				n++
			}
		}
	}
	return n
}

// Fig5_10 reproduces the common-block split table.
func Fig5_10() *Table {
	t := &Table{
		ID:     "Fig 5-10",
		Title:  "Common block splits and resulting 4-processor speedup",
		Header: []string{"program", "#splits", "speedup before", "speedup after"},
	}
	model := machine.AlphaServer8400()
	for _, name := range []string{"arc3d", "wave5", "hydro2d"} {
		w := workloads.ByName(name)
		s := open(w, compiler(true, true))
		splits := s.Live.CommonBlockSplits()
		mw := hinted(s.Workload(), w)
		// An aliased common block forces one layout for both live ranges:
		// every chosen parallel loop touching it pays the conflicting-
		// decomposition reshuffle. Splitting the block frees the layouts.
		if len(splits) > 0 {
			for i := range mw.Loops {
				if loopTouchesBlock(s, mw.Loops[i].ID, splits[0].Block) {
					mw.Loops[i].ConflictingDecomp = true
				}
			}
		}
		before := model.Speedup(mw, 4)
		after := before
		if len(splits) > 0 {
			freed := mw
			freed.Loops = append([]machine.LoopWork(nil), mw.Loops...)
			for i := range freed.Loops {
				freed.Loops[i].ConflictingDecomp = false
			}
			after = model.Speedup(freed, 4)
		}
		t.Rows = append(t.Rows, []string{name, itoa(len(splits)), f1(before), f1(after)})
	}
	return t
}

// loopTouchesBlock reports whether the chosen loop accesses any member of
// the named common block.
func loopTouchesBlock(s *explorer.Session, loopID, block string) bool {
	li := s.Par.LoopByID(loopID)
	if li == nil {
		return false
	}
	rs := s.Sum.RegionSum[li.Region]
	if rs == nil {
		return false
	}
	for _, sym := range rs.SortedSyms() {
		if sym.Common == block {
			return true
		}
	}
	return false
}

// Fig5_12 reproduces the flo88 speedup curves without and with array
// contraction on the 32-processor Origin model (cache scaled to our
// problem sizes; see DESIGN.md).
func Fig5_12() *Table {
	t := &Table{
		ID:     "Fig 5-12",
		Title:  "flo88 speedup without/with array contraction (SGI Origin model)",
		Header: []string{"procs", "without contraction", "with contraction"},
	}
	w := workloads.ByName("flo88")
	s := userAssisted(w)
	cons := s.Live.Contractions()
	mw := hinted(s.Workload(), w)
	// The streaming loops' memory traffic comes from the vector-style
	// temporaries: before contraction the whole temporary arrays stream;
	// after, only the per-iteration footprints remain (they fit in cache).
	var fullTemps, smallTemps int64
	seenSym := map[string]bool{}
	for _, c := range cons {
		key := c.Sym.Name + "/" + c.Sym.Common
		if seenSym[key] {
			continue
		}
		seenSym[key] = true
		fullTemps += c.FullElems
		smallTemps += c.FootprintElems
	}
	contracted := mw
	contracted.Loops = append([]machine.LoopWork(nil), mw.Loops...)
	for i := range mw.Loops {
		if !mw.Loops[i].Streaming {
			continue
		}
		mw.Loops[i].FootprintElems = fullTemps
		contracted.Loops[i].FootprintElems = smallTemps
		contracted.Loops[i].TotalOps = mw.Loops[i].TotalOps * 9 / 10 // fewer memory refs (§5.6: ~10% uniprocessor gain)
	}
	// Scale the Origin's memory system to our scaled-down arrays so the
	// memory-pressure regime matches the paper's full-size runs: smaller
	// cache, fewer memory ports, higher per-miss cost (see DESIGN.md).
	model := machine.SGIOrigin()
	model.CacheElems = 600
	model.MemPorts = 2
	model.MissPenalty = 8
	for _, procs := range []int{1, 2, 4, 8, 16, 32} {
		t.Rows = append(t.Rows, []string{
			itoa(procs),
			f1(model.Speedup(mw, procs)),
			f1(model.Speedup(contracted, procs)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d arrays contracted (liveness-enabled)", len(cons)))
	return t
}
