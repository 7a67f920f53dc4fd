package explorer

import (
	"fmt"
	"strings"
	"testing"

	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/viz"
	"suifx/internal/workloads"
)

// A miniature mdg: the outer loop is blocked by a conditionally-written
// array (rl) the compiler cannot privatize; the user's assertion unlocks it.
const miniMdg = `
      PROGRAM mdg
      REAL rs(100), rl(100), res(300), cut2, acc, chain
      INTEGER i, j, k, kc
      cut2 = 90.0
      chain = 1.0
      DO 900 i = 1, 300
        chain = chain * 0.5 + i
900   CONTINUE
      DO 1000 i = 1, 300
        acc = 0.0
        DO 1105 j = 1, 40
          DO 1100 k = 1, 9
            rs(k) = MOD(i * 17 + k * 31 + j, 97)
            acc = acc + rs(k) * 0.001
1100      CONTINUE
1105    CONTINUE
        kc = 0
        DO 1110 k = 1, 9
          IF (rs(k) .GT. cut2) kc = kc + 1
1110    CONTINUE
        IF (kc .NE. 9) THEN
          DO 1130 k = 2, 5
            IF (rs(k+4) .LE. cut2) rl(k+4) = rs(k) * 2.0
1130      CONTINUE
          IF (kc .EQ. 0) THEN
            DO 1140 k = 11, 14
              res(i) = res(i) + rl(k-5)
1140        CONTINUE
          ENDIF
        ENDIF
        res(i) = res(i) + acc
1000  CONTINUE
      END
`

func newTestSession(t *testing.T) *Session {
	t.Helper()
	prog := minif.MustParse("mdg", miniMdg)
	s, err := NewSession(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGuruFindsTarget(t *testing.T) {
	s := newTestSession(t)
	targets := s.Targets()
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	top := targets[0]
	if top.ID() != "MDG/1000" {
		t.Fatalf("top target = %s, want MDG/1000", top.ID())
	}
	if top.StaticDeps == 0 {
		t.Fatal("target should report static dependences (rl)")
	}
	// The paper's key observation (§4.1.2): the compiler reports a static
	// dependence on rl, but the Dynamic Dependence Analyzer sees deps only
	// from the genuine chain recurrence, not from rl.
	lo, hi, _ := s.in.Cells(s.Prog.ByName["MDG"].Lookup("RL"))
	if n := s.Dyn.CarriedInRange(top.Loop.Region.Loop, lo, hi); n != 0 {
		t.Fatalf("rl should show no dynamic dependences, got %d", n)
	}
	if top.DynDeps != 0 {
		t.Fatalf("loop 1000 should show no dynamic deps (the paper's hint), got %d", top.DynDeps)
	}
	// The chain recurrence loop, by contrast, does carry dynamic deps.
	if s.Dyn.Carried(s.Par.LoopByID("MDG/900").Region.Loop) == 0 {
		t.Fatal("the chain recurrence should show dynamic deps")
	}
	if top.CoveragePct < 50 {
		t.Fatalf("loop 1000 dominates execution: coverage = %f%%", top.CoveragePct)
	}
}

func TestAssertionUnlocksLoop(t *testing.T) {
	s := newTestSession(t)
	li := s.Par.LoopByID("MDG/1000")
	if li == nil || li.Dep.Parallelizable {
		t.Fatal("MDG/1000 should start sequential")
	}
	if _, err := s.AssertPrivate("MDG/1000", "RL"); err != nil {
		t.Fatal(err)
	}
	li = s.Par.LoopByID("MDG/1000")
	if li == nil || !li.Dep.Parallelizable {
		t.Fatalf("after the assertion the loop should parallelize: %+v", li.Dep.Blocking)
	}
	cov, _ := s.CoverageGranularity()
	if cov < 0.5 {
		t.Fatalf("coverage after assertion = %f", cov)
	}
}

func TestAssertionCheckerRefutesIndependence(t *testing.T) {
	// chain is a genuine cross-iteration recurrence: the checker must refute
	// an independence assertion on it (§2.8).
	s := newTestSession(t)
	err := s.AssertIndependent("MDG/900", "CHAIN")
	if err == nil || !strings.Contains(err.Error(), "contradicted") {
		t.Fatalf("independence assertion on CHAIN should be refuted, got %v", err)
	}
	// rl shows no dynamic dependence for this input, so the (unsound for
	// other inputs, but unrefuted) assertion is accepted.
	if err := s.AssertIndependent("MDG/1000", "RL"); err != nil {
		t.Fatalf("independence assertion on RL should pass the checker: %v", err)
	}
}

func TestCallGraphAndSourceView(t *testing.T) {
	src := `
      SUBROUTINE leaf
      END
      SUBROUTINE mid
      CALL leaf
      END
      PROGRAM main
      CALL mid
      CALL leaf
      END
`
	prog := minif.MustParse("cg", src)
	cg := &viz.CallGraph{Prog: prog, Focus: "LEAF"}
	out := cg.Render()
	if !strings.Contains(out, "* LEAF") {
		t.Fatalf("call graph should mark focus:\n%s", out)
	}
	sv := &viz.SourceView{Source: prog.Source, Highlight: map[int]bool{5: true}, Anchor: 8}
	txt := sv.Render()
	if !strings.Contains(txt, "*    5") || !strings.Contains(txt, ">    8") {
		t.Fatalf("source view markers missing:\n%s", txt)
	}
}

func TestWorkloadSpeedupImprovesWithAssertion(t *testing.T) {
	s := newTestSession(t)
	before := s.Opts.Model.Speedup(s.Workload(), 8)
	if _, err := s.AssertPrivate("MDG/1000", "RL"); err != nil {
		t.Fatal(err)
	}
	after := s.Opts.Model.Speedup(s.Workload(), 8)
	if after <= before {
		t.Fatalf("speedup should improve: before=%v after=%v", before, after)
	}
}

// verdicts renders everything a parallel.Result decides, per loop.
func verdicts(res *parallel.Result) string {
	var b strings.Builder
	for _, li := range res.Ordered {
		fmt.Fprintf(&b, "%s par=%v chosen=%v under=%v\n", li.ID(), li.Dep.Parallelizable, li.Chosen, li.UnderParallel)
		for _, vr := range li.Dep.Vars {
			fmt.Fprintf(&b, "  %s %s op=%q fin=%v user=%v %s\n",
				vr.Sym.Name, vr.Class, vr.RedOp, vr.NeedsFinalization, vr.ByAssertion, vr.Reason)
		}
	}
	return b.String()
}

// TestAssertionDifferential: an assertion is loop-scoped. After every
// scripted ch4 assertion the session's verdicts equal a from-scratch
// ParallelizeWith over the same summaries, accumulated assertions and
// liveness setting, while the driver recomputed no summary and the session
// kept the liveness it already had.
func TestAssertionDifferential(t *testing.T) {
	for _, w := range workloads.All() {
		if len(w.UserAssertions) == 0 {
			continue
		}
		for _, useLiveness := range []bool{true, false} {
			w, useLiveness := w, useLiveness
			t.Run(fmt.Sprintf("%s/liveness=%v", w.Name, useLiveness), func(t *testing.T) {
				t.Parallel()
				opts := DefaultOptions()
				opts.UseLiveness = useLiveness
				s, err := NewSession(w.Fresh(), opts)
				if err != nil {
					t.Fatal(err)
				}
				sum, live := s.Sum, s.Live
				check := func(what string) {
					t.Helper()
					if s.LastInc.Recomputed != 0 || s.Sum != sum || s.Live != live {
						t.Fatalf("%s: recomputed %d summaries, Sum/Live identical %v/%v; want 0 and both kept",
							what, s.LastInc.Recomputed, s.Sum == sum, s.Live == live)
					}
					cfg := parallel.Config{UseReductions: opts.UseReductions, Assertions: s.Assertions}
					if useLiveness {
						cfg.DeadAtExit = liveness.Analyze(sum, liveness.Full).Oracle()
					}
					if got, want := verdicts(s.Par), verdicts(parallel.ParallelizeWith(sum, cfg)); got != want {
						t.Fatalf("%s: session verdicts differ from a from-scratch run\n--- session ---\n%s--- scratch ---\n%s", what, got, want)
					}
				}
				for _, a := range w.Script() {
					if a.Independent {
						err = s.AssertIndependent(a.Loop, a.Var)
					} else {
						_, err = s.AssertPrivate(a.Loop, a.Var)
					}
					if err != nil {
						t.Fatalf("assert %+v: %v", a, err)
					}
					check(fmt.Sprintf("%+v", a))
				}
				for loop := range w.UserAssertions {
					if li := s.Par.LoopByID(loop); !li.Dep.Parallelizable {
						t.Fatalf("%s still blocked after its scripted assertions: %+v", loop, li.Dep.Blocking)
					}
				}
			})
		}
	}
}

// twoCallsSrc activates S/20 twice per iteration of T/10: the first call
// writes A, the second reads it back in reverse. The reads see the other
// activation's writes, so S/20 carries nothing and the user's "A is
// independent in S/20" must be accepted.
const twoCallsSrc = `
      PROGRAM T
      COMMON /W/ A(10)
      INTEGER J
      DO 10 J = 1, 3
        CALL S(1)
        CALL S(2)
10    CONTINUE
      END

      SUBROUTINE S(M)
      COMMON /W/ A(10)
      REAL X
      INTEGER I, M
      DO 20 I = 1, 10
        IF (M .EQ. 1) THEN
          A(I) = I
        ELSE
          X = A(11-I)
        ENDIF
20    CONTINUE
      END
`

func TestAssertIndependentAcrossActivations(t *testing.T) {
	s, err := NewSession(minif.MustParse("twocalls", twoCallsSrc), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	li := s.Par.LoopByID("S/20")
	if li == nil || li.Dep.Parallelizable {
		t.Fatal("S/20 should start sequential")
	}
	if n := s.Dyn.Carried(li.Region.Loop); n != 0 {
		t.Fatalf("S/20 shows %d dynamic dependences, want 0", n)
	}
	if err := s.AssertIndependent("S/20", "A"); err != nil {
		t.Fatalf("independence of A in S/20 should pass the checker: %v", err)
	}
	if li := s.Par.LoopByID("S/20"); !li.Dep.Parallelizable {
		t.Fatalf("after the assertion S/20 should parallelize: %+v", li.Dep.Blocking)
	}
}
