package session

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/explorer"
	"suifx/internal/workloads"
)

// fakeClock is a manual test clock for TTL eviction.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = driver.NewCache()
	}
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

func mustCreate(t *testing.T, m *Manager, name, src string) *Session {
	t.Helper()
	s, err := m.Create(context.Background(), name, src, Options{})
	if err != nil {
		t.Fatalf("Create(%s): %v", name, err)
	}
	return s
}

func mdgSession(t *testing.T, m *Manager) *Session {
	t.Helper()
	w := workloads.ByName("mdg")
	return mustCreate(t, m, w.Name, w.Source)
}

// TestSessionDialogueMdg drives the paper's mdg walkthrough end to end: the
// Guru's worklist shows INTERF/1000 as an important loop blocked statically
// on RL with zero observed dynamic dependences (the hint that an assertion
// is plausible), one PRIVATE assertion unlocks it, and the assertion is
// loop-scoped: the driver recomputes no summary for it.
func TestSessionDialogueMdg(t *testing.T) {
	m := testManager(t, Config{})
	s := mdgSession(t, m)

	g := s.Guru()
	if len(g.Targets) == 0 {
		t.Fatal("guru returned no targets")
	}
	var interf *Target
	for i := range g.Targets {
		if g.Targets[i].Loop == "INTERF/1000" {
			interf = &g.Targets[i]
			break
		}
	}
	if interf == nil {
		t.Fatalf("INTERF/1000 not in the guru worklist: %+v", g.Targets)
	}
	if !interf.Important {
		t.Fatal("INTERF/1000 not marked important despite its coverage")
	}
	if interf.StaticDeps == 0 || interf.DynDeps != 0 {
		t.Fatalf("INTERF/1000: static=%d dyn=%d, want static>0 dyn==0 (assertion hint)", interf.StaticDeps, interf.DynDeps)
	}
	if len(interf.Blocking) == 0 || interf.Blocking[0].Var != "RL" || interf.Blocking[0].Reason == "" {
		t.Fatalf("INTERF/1000 blocking = %v, want RL with a reason", interf.Blocking)
	}
	coverageBefore := g.Coverage

	out, err := s.Assert(KindPrivate, "INTERF/1000", "RL")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatalf("assertion rejected: %s (%s)", out.Reason, out.Code)
	}
	// The assertion contract: no summary reads an assertion, so the driver
	// recomputed nothing and served every procedure from the retained
	// results.
	prog := m.cfg.Cache.MustAnalyze("mdg", workloads.ByName("mdg").Source, driver.Options{}).Prog
	if re := out.Reanalysis; re.Recomputed != 0 || re.Reused != len(prog.Procs) {
		t.Fatalf("assertion reanalysis = %+v, want 0 recomputed and all %d procs reused", re, len(prog.Procs))
	}
	if out.Guru == nil {
		t.Fatal("accepted assertion must return the re-ranked guru list")
	}
	for _, tg := range out.Guru.Targets {
		if tg.Loop == "INTERF/1000" {
			t.Fatal("INTERF/1000 still a sequential target after the unlocking assertion")
		}
	}
	if out.Guru.Coverage <= coverageBefore {
		t.Fatalf("parallel coverage %f did not improve (was %f)", out.Guru.Coverage, coverageBefore)
	}

	// Observability: events recorded, manager counters advanced.
	evs := s.Events(0)
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"created", "analyzed", "profiled", "assert"} {
		if !kinds[k] {
			t.Fatalf("event log %v missing kind %q", evs, k)
		}
	}
	st := m.Stats()
	if st.AssertsAccepted != 1 || st.Live != 1 || st.Created != 1 {
		t.Fatalf("stats = %+v, want 1 accepted assert and 1 live session", st)
	}

	info := s.Info()
	if info.Asserts != 1 {
		t.Fatalf("info = %+v does not reflect the assertion", info)
	}
}

// TestSessionOutlivesClosedManager: a session whose Manager was closed — no
// janitor, no table — still answers every dialogue step. The local explorer
// relies on this to keep an idle user's session from eviction.
func TestSessionOutlivesClosedManager(t *testing.T) {
	m := testManager(t, Config{})
	s := mdgSession(t, m)
	m.Close()
	if m.Len() != 0 {
		t.Fatalf("closed manager still lists %d sessions", m.Len())
	}

	if g := s.Guru(); len(g.Targets) == 0 {
		t.Fatal("guru returned no targets after Close")
	}
	out, err := s.Assert(KindPrivate, "INTERF/1000", "RL")
	if err != nil || !out.Accepted || out.Guru == nil {
		t.Fatalf("assert after Close = %+v, %v; want accepted with a re-ranked list", out, err)
	}
	why, err := s.Why("INTERF/1000")
	if err != nil || !why.Chosen {
		t.Fatalf("why after Close = %+v, %v; want the asserted loop chosen", why, err)
	}
	rep, err := s.Slice("program", "INTERF", "RL", 37)
	if err != nil || len(rep.Procs["INTERF"]) == 0 {
		t.Fatalf("slice after Close = %+v, %v", rep, err)
	}
	var kinds []string
	for _, e := range s.Events(0) {
		kinds = append(kinds, e.Kind)
	}
	if want := []string{"created", "analyzed", "profiled", "assert", "why", "slice"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("events after Close = %v, want %v", kinds, want)
	}
}

// TestSessionAssertRejections covers the assertion-checker edge cases: each
// bad claim comes back as an explicit rejection with a machine-readable
// code, never a silent drop or an opaque transport error.
func TestSessionAssertRejections(t *testing.T) {
	m := testManager(t, Config{})
	s := mdgSession(t, m)

	cases := []struct {
		name, kind, loop, v, code string
	}{
		{"unknown loop", KindPrivate, "NOPE/1", "RL", explorer.RejectUnknownLoop},
		{"unknown loop independent", KindIndependent, "NOPE/1", "RL", explorer.RejectUnknownLoop},
		{"unknown variable", KindPrivate, "INTERF/1000", "NOSUCHVAR", explorer.RejectUnknownVar},
		{"unknown variable independent", KindIndependent, "INTERF/1000", "NOSUCHVAR", explorer.RejectUnknownVar},
	}
	for _, tc := range cases {
		out, err := s.Assert(tc.kind, tc.loop, tc.v)
		if err != nil {
			t.Fatalf("%s: transport error %v, want in-band rejection", tc.name, err)
		}
		if out.Accepted || out.Code != tc.code {
			t.Fatalf("%s: outcome %+v, want rejection with code %s", tc.name, out, tc.code)
		}
	}
	if _, err := s.Assert("frobnicate", "INTERF/1000", "RL"); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("bad kind error = %v, want ErrBadAssertKind", err)
	}
	if st := m.Stats(); st.AssertsRejected != int64(len(cases)) || st.AssertsAccepted != 0 {
		t.Fatalf("stats = %+v, want %d rejections", st, len(cases))
	}
	// Rejections must not have perturbed the analysis: INTERF/1000 is still
	// a sequential target.
	found := false
	for _, tg := range s.Guru().Targets {
		found = found || tg.Loop == "INTERF/1000"
	}
	if !found {
		t.Fatal("rejected assertions changed the analysis: INTERF/1000 left the worklist")
	}
}

// TestSessionAssertContradicted: an INDEPENDENT claim on a variable with an
// observed loop-carried flow dependence is refuted by the dynamic checker.
func TestSessionAssertContradicted(t *testing.T) {
	const recur = `      PROGRAM chainy
      REAL a(100)
      DO 10 i = 1, 100
        a(i) = 1.0
10    CONTINUE
      DO 20 i = 2, 100
        a(i) = a(i-1) + 1.0
20    CONTINUE
      END
`
	m := testManager(t, Config{})
	s := mustCreate(t, m, "chainy.f", recur)
	out, err := s.Assert(KindIndependent, "CHAINY/20", "A")
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted || out.Code != explorer.RejectContradicted {
		t.Fatalf("outcome = %+v, want contradicted rejection", out)
	}
	if !strings.Contains(out.Reason, "contradicted") {
		t.Fatalf("reason %q does not explain the contradiction", out.Reason)
	}
}

// TestSessionTTLEviction: sessions idle past the TTL are swept; touched
// sessions survive.
func TestSessionTTLEviction(t *testing.T) {
	clk := newFakeClock()
	m := testManager(t, Config{IdleTTL: time.Minute, now: clk.now})
	w := workloads.ByName("mdg")
	old := mustCreate(t, m, w.Name, w.Source)
	fresh := mustCreate(t, m, w.Name, w.Source)

	clk.advance(59 * time.Second)
	fresh.Guru() // touch: resets the idle timer
	clk.advance(2 * time.Second)

	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if _, ok := m.Get(old.ID()); ok {
		t.Fatal("idle session still resolvable after TTL eviction")
	}
	if _, ok := m.Get(fresh.ID()); !ok {
		t.Fatal("recently touched session was evicted")
	}
	if st := m.Stats(); st.EvictedIdle != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v, want 1 idle eviction and 1 live", st)
	}
}

// TestSessionLRUCapEviction: creating past MaxSessions evicts the least
// recently used session, not the most recent.
func TestSessionLRUCapEviction(t *testing.T) {
	m := testManager(t, Config{MaxSessions: 2})
	w := workloads.ByName("mdg")
	a := mustCreate(t, m, w.Name, w.Source)
	b := mustCreate(t, m, w.Name, w.Source)
	a.Guru() // a is now more recently used than b
	c := mustCreate(t, m, w.Name, w.Source)

	if _, ok := m.Get(b.ID()); ok {
		t.Fatal("least recently used session b survived cap eviction")
	}
	for _, s := range []*Session{a, c} {
		if _, ok := m.Get(s.ID()); !ok {
			t.Fatalf("session %s wrongly evicted", s.ID())
		}
	}
	if st := m.Stats(); st.EvictedFull != 1 || st.Live != 2 || st.MaxSessions != 2 {
		t.Fatalf("stats = %+v, want 1 full eviction, 2 live", st)
	}
}

// TestSessionDelete: explicit teardown is observable and idempotent.
func TestSessionDelete(t *testing.T) {
	m := testManager(t, Config{})
	s := mdgSession(t, m)
	if !m.Delete(s.ID()) {
		t.Fatal("delete of a live session failed")
	}
	if m.Delete(s.ID()) {
		t.Fatal("second delete reported success")
	}
	if st := m.Stats(); st.Deleted != 1 || st.Live != 0 {
		t.Fatalf("stats = %+v, want 1 deleted, 0 live", st)
	}
}

// TestSessionSharedCacheOneAnalysis: two sessions over identical source cost
// one driver analysis (content-hash cache) and branch independently — an
// assertion in one never leaks into the other, and never drops the compiled
// code every session on the cached program shares.
func TestSessionSharedCacheOneAnalysis(t *testing.T) {
	cache := driver.NewCache()
	m := testManager(t, Config{Cache: cache})
	s1 := mdgSession(t, m)
	s2 := mdgSession(t, m)
	if st := cache.Stats(); st.Misses != 1 || st.Hits < 1 {
		t.Fatalf("cache stats = %+v, want exactly one analysis for both sessions", st)
	}
	if out, err := s1.Assert(KindPrivate, "INTERF/1000", "RL"); err != nil || !out.Accepted {
		t.Fatalf("assert failed: %v / %+v", err, out)
	}
	found := false
	for _, tg := range s2.Guru().Targets {
		found = found || tg.Loop == "INTERF/1000"
	}
	if !found {
		t.Fatal("assertion in session 1 leaked into session 2's analysis")
	}
	// A third session profiles the same cached program: the instrumented
	// stream the first two compiled is still there.
	before := exec.ReadCounters().CompiledPrograms
	mdgSession(t, m)
	if d := exec.ReadCounters().CompiledPrograms - before; d != 0 {
		t.Fatalf("a session created after an assertion recompiled %d programs; want 0", d)
	}
}

// TestSessionDrainReplayAfterAssertions: for every ch4 workload, in both
// liveness configurations, a session that accepted its whole scripted
// dialogue and a session rebuilt from its export by replay hold the same
// Guru state, and every assertion along the way recomputed no summary.
func TestSessionDrainReplayAfterAssertions(t *testing.T) {
	for _, w := range workloads.All() {
		if len(w.UserAssertions) == 0 {
			continue
		}
		for _, noLiveness := range []bool{false, true} {
			a := testManager(t, Config{})
			s, err := a.Create(context.Background(), w.Name, w.Source, Options{NoLiveness: noLiveness})
			if err != nil {
				t.Fatal(err)
			}
			script := w.Script()
			for i, a := range script {
				kind := KindPrivate
				if a.Independent {
					kind = KindIndependent
				}
				out, err := s.Assert(kind, a.Loop, a.Var)
				if err != nil || !out.Accepted || out.Reanalysis.Recomputed != 0 {
					t.Fatalf("%s: assert %+v: err %v, outcome %+v; want accepted with 0 recomputed", w.Name, a, err, out)
				}
				if i+1 < len(script) && script[i+1].Loop == a.Loop {
					continue // the loop's script is not finished
				}
				for _, tg := range out.Guru.Targets {
					if tg.Loop == a.Loop {
						t.Fatalf("%s: %s still on the Guru worklist after its scripted assertions", w.Name, a.Loop)
					}
				}
			}
			want := s.Guru()

			exports, missing := a.Drain([]string{s.ID()})
			if len(exports) != 1 || len(missing) != 0 {
				t.Fatalf("%s: drain = %d exports, %d missing", w.Name, len(exports), len(missing))
			}
			b := testManager(t, Config{})
			imported, err := b.Import(context.Background(), exports[0])
			if err != nil {
				t.Fatalf("%s: import: %v", w.Name, err)
			}
			if got := imported.Guru(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (no_liveness=%v): replayed Guru state differs\n got %+v\nwant %+v", w.Name, noLiveness, got, want)
			}
		}
	}
}
