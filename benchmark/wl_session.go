package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/explorer"
	"suifx/internal/issa"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/session"
	"suifx/internal/workloads"
)

// assertion is one step of an application's §4.4 user-assistance script.
type assertion struct {
	loop, v string
	last    bool // the loop's final scripted assertion: it must leave the worklist
}

// dialogueApp is one ch4 application with its script and a slice criterion.
type dialogueApp struct {
	name, src string
	script    []assertion
	loops     []string
	sliceProc string
	sliceVar  string
	sliceLine int
}

// editsPerCycle is how many one-procedure edits follow each round of the
// four dialogues.
const editsPerCycle = 5

// sessionWL is the interactive loop against session.Manager's Go API, one
// client, then one-procedure edits on a corpus tier.
type sessionWL struct {
	apps []dialogueApp

	tier       *corpus.Program
	ex         *explorer.Session // analyzed cold in set-up, edited in the timed loop
	leaves     []string          // the editsPerCycle procedures a cycle edits, one each
	coldDigest string
}

func newDialogueApp(name string, seed int64) (dialogueApp, error) {
	w := workloads.ByName(name)
	app := dialogueApp{name: name, src: w.Source}
	for loop := range w.UserAssertions {
		app.loops = append(app.loops, loop)
	}
	sort.Strings(app.loops)
	for _, loop := range app.loops {
		var vars []string
		for v := range w.UserAssertions[loop].Private {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for i, v := range vars {
			app.script = append(app.script, assertion{loop: loop, v: v, last: i == len(vars)-1})
		}
	}
	// Slice criterion: a use of the first scripted variable in its loop's
	// procedure; the seed picks which use.
	first := app.script[0]
	app.sliceProc, _, _ = strings.Cut(first.loop, "/")
	app.sliceVar = first.v
	g := issa.Build(w.Fresh())
	var lines []int
	for line := 1; line <= strings.Count(w.Source, "\n")+1; line++ {
		if len(g.FindUse(app.sliceProc, app.sliceVar, line)) > 0 {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		return app, fmt.Errorf("%s: no use of %s in %s to slice from", name, app.sliceVar, app.sliceProc)
	}
	app.sliceLine = lines[int(uint64(seed)%uint64(len(lines)))]
	return app, nil
}

func (w *sessionWL) setup(b *bench) error {
	names, tier := sessionApps, "5k"
	if b.cfg.toy {
		names, tier = sessionApps[:1], "1k"
	}
	w.apps = nil
	for _, n := range names {
		app, err := newDialogueApp(n, b.cfg.seed)
		if err != nil {
			return err
		}
		w.apps = append(w.apps, app)
	}
	root := b.tr.root("setup")
	defer root.end()
	b.time(root.child("corpus.Generate"), "corpus.gen_ms", func() { w.tier = tierProgram(tier, b.cfg.seed) })
	prog, err := minif.Parse(w.tier.Name, w.tier.Source)
	if err != nil {
		return err
	}
	w.ex = explorer.NewUnstarted(driver.NewIncremental(prog, driver.Options{}), explorer.DefaultOptions())
	if err := w.ex.Analyze(); err != nil {
		return err
	}
	w.coldDigest = verdictDigest(w.ex.Par)
	if b.cfg.corruptOracle {
		w.coldDigest += "!"
	}
	// Edit the same leaf procedures in every cycle of every run, spread
	// evenly over the program: what an edit recomputes depends on the
	// leaf's callers, so a per-run draw of leaves would be a per-run draw of
	// costs.
	var leaves []string
	cg := prog.CallGraph()
	for _, p := range prog.Procs {
		if len(cg[p.Name]) == 0 && p != prog.Main() {
			leaves = append(leaves, p.Name)
		}
	}
	if len(leaves) == 0 {
		return fmt.Errorf("tier %s has no leaf procedure to edit", tier)
	}
	w.leaves = w.leaves[:0]
	for i := 0; i < editsPerCycle; i++ {
		w.leaves = append(w.leaves, leaves[i*len(leaves)/editsPerCycle])
	}
	// Warm every path once before timing.
	w.dialogue(b, &w.apps[0], "warm/")
	w.edit(b, 0, "warm/")
	return nil
}

// dialogue plays one application's whole Guru dialogue on a fresh cache:
// create, guru, every scripted assertion, why per loop, one cold and three
// warm slices.
func (w *sessionWL) dialogue(b *bench, app *dialogueApp, prefix string) {
	m := session.NewManager(session.Config{Cache: driver.NewCache()})
	defer m.Close()
	root := b.tr.root("session.dialogue")
	defer root.end()
	count := prefix == ""

	var s *session.Session
	var err error
	b.time(root.child("session.Create"), prefix+"session.create_ms."+app.name, func() {
		s, err = m.Create(context.Background(), app.name, app.src, session.Options{})
	})
	if err != nil {
		b.op(false, "%s: create: %v", app.name, err)
		return
	}
	if count {
		b.op(true, "")
	}
	var guru *session.GuruReport
	b.time(root.child("session.Guru"), prefix+"session.guru_ms", func() { guru = s.Guru() })
	if count {
		b.op(len(guru.Targets) > 0, "%s: empty Guru worklist before any assertion", app.name)
	}

	for _, a := range app.script {
		var out *session.AssertOutcome
		b.time(root.child("session.Assert"), prefix+"session.assert_ms."+app.name, func() {
			out, err = s.Assert(session.KindPrivate, a.loop, a.v)
		})
		ok := err == nil && out.Accepted
		if ok && a.last {
			for _, t := range out.Guru.Targets {
				if t.Loop == a.loop {
					ok = false
				}
			}
		}
		if count {
			b.op(ok, "%s: assert private %s %s: err %v outcome %+v", app.name, a.loop, a.v, err, out)
			if out != nil && out.Accepted {
				b.tr.count("driver.inc.recomputed", int64(out.Reanalysis.Recomputed))
			}
		}
	}
	for _, loop := range app.loops {
		b.time(root.child("session.Why"), prefix+"session.why_ms", func() { _, err = s.Why(loop) })
		if count {
			b.op(err == nil, "%s: why %s: %v", app.name, loop, err)
		}
	}
	lines := -1
	for i := 0; i < 4; i++ {
		series := "slice.warm_ms"
		if i == 0 {
			series = "slice.cold_ms"
		}
		var rep *session.SliceReport
		b.time(root.child("session.Slice"), prefix+series, func() {
			rep, err = s.Slice("program", app.sliceProc, app.sliceVar, app.sliceLine)
		})
		n := 0
		if err == nil {
			for _, ls := range rep.Procs {
				n += len(ls)
			}
		}
		if i == 0 {
			lines = n
		}
		if count {
			b.op(err == nil && n > 0 && n == lines, "%s: slice %s %s:%d: %d lines, first %d, err %v",
				app.name, app.sliceProc, app.sliceVar, app.sliceLine, n, lines, err)
			b.obsVal("slice.lines."+app.name, float64(n))
		}
	}
	m.Delete(s.ID())
}

// edit dirties the i-th leaf procedure and re-analyzes incrementally.
func (w *sessionWL) edit(b *bench, i int, prefix string) {
	leaf := w.leaves[i]
	root := b.tr.root("explorer.edit")
	var err error
	b.time(root.child("explorer.Reanalyze"), fmt.Sprintf("%sedit_ms.%d", prefix, i), func() {
		w.ex.Inc.Invalidate(leaf)
		err = w.ex.Reanalyze()
	})
	root.end()
	if prefix != "" {
		return
	}
	b.tr.count("driver.inc.recomputed", int64(w.ex.LastInc.Recomputed))
	digest := verdictDigest(w.ex.Par)
	b.op(err == nil && w.ex.LastInc.Recomputed >= 1 && digest == w.coldDigest,
		"edit %s: err %v, recomputed %d, verdict digest %s, cold %s", leaf, err, w.ex.LastInc.Recomputed, digest, w.coldDigest)
}

func (w *sessionWL) timed(b *bench, d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := range w.apps {
			w.dialogue(b, &w.apps[i], "")
		}
		for i := 0; i < editsPerCycle; i++ {
			w.edit(b, i, "")
		}
	}
}

// sidecars drive the explorer steps Manager.Create hides, and the layers
// under an edit, each on its own copy.
func (w *sessionWL) sidecars(b *bench) {
	reps := 5
	if b.cfg.toy {
		reps = 1
	}
	for _, app := range w.apps {
		wl := workloads.ByName(app.name)
		for i := 0; i < reps; i++ {
			ex := explorer.NewUnstarted(driver.NewIncremental(wl.Fresh(), driver.Options{}), explorer.DefaultOptions())
			var err error
			b.time(b.tr.root("explorer.Analyze"), "explorer.analyze_ms."+app.name, func() { err = ex.Analyze() })
			if err == nil {
				b.time(b.tr.root("explorer.Profile"), "explorer.profile_ms."+app.name, func() { err = ex.Profile() })
			}
			b.time(b.tr.root("issa.Build"), "issa.build_ms."+app.name, func() { issa.Build(ex.Prog) })
			if err != nil {
				b.op(false, "%s: explorer sidecar: %v", app.name, err)
			}
		}
	}
	prog, err := minif.Parse(w.tier.Name, w.tier.Source)
	if err != nil {
		b.op(false, "sidecar parse: %v", err)
		return
	}
	b.time(b.tr.root("liveness.Analyze"), "liveness.full_ms", func() { liveness.Analyze(w.ex.Sum, liveness.Full) })
	incrementalSidecar(b, prog, batchConfig)
}

func (w *sessionWL) finish(b *bench) {
	names := w.names()
	b.setMedian("slice_ms", "slice.cold_ms", "slice.warm_ms")
	lines := 0.0
	for _, n := range names {
		lines += b.med("slice.lines." + n)
	}
	asserts := b.pooled(w.delaySeries("assert_ms")...)
	_, hiV := hiPercentile(asserts)
	b.set("session.assert_hi_ms", hiV, len(asserts))
	b.set("slice.lines", lines, b.count(prefixed("slice.lines.", names)...))
	if b.cfg.toy {
		// The toy size plays one application; the others report 0.
		for _, n := range sessionApps[1:] {
			b.set("session.create_ms."+n, 0, 0)
			b.set("session.assert_ms."+n, 0, 0)
		}
	}
	if !b.cfg.trace {
		return
	}
	b.setGeomean("explorer.analyze_ms", "explorer.analyze_ms.", names)
	b.setGeomean("explorer.profile_ms", "explorer.profile_ms.", names)
	b.setGeomean("issa.build_ms", "issa.build_ms.", names)
	b.set("session.incremental_speedup", b.med("explorer.analyze_ms."+names[0])/b.med("session.assert_ms."+names[0]),
		b.count("explorer.analyze_ms."+names[0]))
}

func (w *sessionWL) names() []string {
	names := make([]string, len(w.apps))
	for i, a := range w.apps {
		names[i] = a.name
	}
	return names
}

// delaySeries: assert_ms and session_create_ms have one series per
// application, edit_ms one per edited leaf procedure.
func (w *sessionWL) delaySeries(name string) []string {
	switch name {
	case "assert_ms":
		return prefixed("session.assert_ms.", w.names())
	case "session_create_ms":
		return prefixed("session.create_ms.", w.names())
	}
	edits := make([]string, len(w.leaves))
	for i := range edits {
		edits[i] = fmt.Sprintf("edit_ms.%d", i)
	}
	return edits
}

func (w *sessionWL) close() {}
