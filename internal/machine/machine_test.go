package machine

import "testing"

func coarseLoop(parallel bool) LoopWork {
	return LoopWork{
		ID: "L", Invocations: 10, TotalOps: 50_000_000,
		Parallel: parallel, FootprintElems: 100_000,
	}
}

func TestSpeedupScalesWithCoverage(t *testing.T) {
	m := AlphaServer8400()
	// 90% parallel coverage: Amdahl caps speedup well below 8 but above 3.
	w := Workload{
		Loops:     []LoopWork{coarseLoop(true)},
		SerialOps: 5_000_000,
	}
	s8 := m.Speedup(w, 8)
	if s8 < 3 || s8 > 7.9 {
		t.Fatalf("speedup(8) = %v, want within Amdahl range", s8)
	}
	s4 := m.Speedup(w, 4)
	if s4 >= s8 {
		t.Fatalf("speedup should grow with processors: %v vs %v", s4, s8)
	}
	if got := m.Coverage(w); got < 0.89 || got > 0.92 {
		t.Fatalf("coverage = %v", got)
	}
}

func TestNoSpeedupWithoutParallelLoops(t *testing.T) {
	m := AlphaServer8400()
	w := Workload{Loops: []LoopWork{coarseLoop(false)}, SerialOps: 1000}
	if s := m.Speedup(w, 8); s != 1.0 {
		t.Fatalf("sequential workload speedup = %v", s)
	}
}

func TestFineGrainSuppression(t *testing.T) {
	// A tiny parallel loop costs more to spawn than to run: the model
	// suppresses it (§4.5), so time does not regress.
	m := AlphaServer8400()
	fine := LoopWork{ID: "f", Invocations: 10000, TotalOps: 200_000, Parallel: true}
	seq := m.LoopTime(LoopWork{ID: "f", Invocations: 10000, TotalOps: 200_000}, 1)
	par := m.LoopTime(fine, 8)
	if par > seq {
		t.Fatalf("fine-grain loop should be suppressed: %v > %v", par, seq)
	}
}

func TestCacheKneeAndContraction(t *testing.T) {
	// Fig 5-12's shape: a working set far beyond cache scales poorly;
	// contracting it restores scalability.
	m := SGIOrigin()
	big := Workload{Loops: []LoopWork{{
		ID: "flo", Invocations: 50, TotalOps: 400_000_000,
		Parallel: true, FootprintElems: 16_000_000, Streaming: true,
	}}, SerialOps: 8_000_000}
	small := Workload{Loops: []LoopWork{{
		ID: "flo", Invocations: 50, TotalOps: 360_000_000,
		Parallel: true, FootprintElems: 400_000, Streaming: true,
	}}, SerialOps: 8_000_000}
	sBig := m.Speedup(big, 32)
	sSmall := m.Speedup(small, 32)
	if sSmall <= sBig {
		t.Fatalf("contraction should improve scalability: %v vs %v", sSmall, sBig)
	}
	if sBig > 12 {
		t.Fatalf("uncontracted speedup should be memory-bound: %v", sBig)
	}
	if sSmall < 12 {
		t.Fatalf("contracted speedup should scale: %v", sSmall)
	}
}

func TestReductionFinalizationStrategies(t *testing.T) {
	m := SGIChallenge()
	serialized := LoopWork{
		ID: "r", Invocations: 100, TotalOps: 40_000_000, Parallel: true,
		ReductionElems: 2000,
	}
	staggered := serialized
	staggered.StaggeredFinalize = true
	ts := m.LoopTime(serialized, 4)
	tg := m.LoopTime(staggered, 4)
	if tg >= ts {
		t.Fatalf("staggered finalization should beat serialized: %v vs %v", tg, ts)
	}
	perUpdate := serialized
	perUpdate.PerUpdateLock = true
	perUpdate.Updates = 4_000_000
	tp := m.LoopTime(perUpdate, 4)
	// With few elements but many updates, per-update locking loses.
	if tp <= tg {
		t.Fatalf("per-update locks should lose with many updates: %v vs %v", tp, tg)
	}
}

func TestConflictingDecompositionPenalty(t *testing.T) {
	m := AlphaServer8400()
	clean := coarseLoop(true)
	dirty := clean
	dirty.ConflictingDecomp = true
	if m.LoopTime(dirty, 8) <= m.LoopTime(clean, 8) {
		t.Fatal("conflicting decomposition must cost time")
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name, want string // want "" = unknown
	}{
		{"", "Digital AlphaServer 8400"},
		{"alpha", "Digital AlphaServer 8400"},
		{"AlphaServer", "Digital AlphaServer 8400"},
		{"alphaserver8400", "Digital AlphaServer 8400"},
		{"challenge", "SGI Challenge"},
		{"SGI-Challenge", "SGI Challenge"},
		{"origin", "SGI Origin 2000"},
		{"Origin", "SGI Origin 2000"},
		{"sgi-origin", "SGI Origin 2000"},
		{"ORIGIN2000", "SGI Origin 2000"},
		{"cray", ""},
		{"alpha ", ""},
	} {
		m, ok := ByName(tc.name)
		if ok != (tc.want != "") {
			t.Errorf("ByName(%q) ok = %v, want %v", tc.name, ok, tc.want != "")
			continue
		}
		if ok && m.Name != tc.want {
			t.Errorf("ByName(%q) = %s, want %s", tc.name, m.Name, tc.want)
		}
	}
}

func TestGranularity(t *testing.T) {
	m := AlphaServer8400()
	w := Workload{Loops: []LoopWork{coarseLoop(true)}}
	g := m.GranularityMs(w)
	if g <= 0 {
		t.Fatalf("granularity = %v", g)
	}
}
