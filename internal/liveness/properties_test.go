package liveness_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/region"
	"suifx/internal/summary"
)

// TestVariantPrecisionOrderingEverywhere is Fig 5-7's ordering as a property
// of every answer rather than of three totals: whatever a cheaper variant
// proves dead, every more precise variant proves dead too.
func TestVariantPrecisionOrderingEverywhere(t *testing.T) {
	for _, p := range programs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			sum := p.sum(t)
			full := liveness.Analyze(sum, liveness.Full)
			oneBit := liveness.Analyze(sum, liveness.OneBit)
			fi := liveness.Analyze(sum, liveness.FlowInsensitive)
			for _, r := range sum.Reg.LoopRegions() {
				rs := sum.RegionSum[r]
				for _, sym := range rs.SortedSyms() {
					if rs.Arrays[sym].Writes().IsEmpty() {
						continue
					}
					f, o, i := full.DeadAtExit(r, sym), oneBit.DeadAtExit(r, sym), fi.DeadAtExit(r, sym)
					if (i && !o) || (o && !f) {
						t.Errorf("%s %s: dead under flow-insensitive=%t, 1-bit=%t, full=%t", r.ID(), sym.Name, i, o, f)
					}
				}
			}
		})
	}
}

// loopVerdicts renders what the parallelizer decided, loop by loop.
func loopVerdicts(res *parallel.Result) []string {
	var out []string
	for _, li := range res.Ordered {
		line := fmt.Sprintf("%s parallelizable=%t chosen=%t under=%t", li.ID(), li.Dep.Parallelizable, li.Chosen, li.UnderParallel)
		for _, vr := range li.Dep.Vars {
			line += fmt.Sprintf(" %s=%s/%t", vr.Sym.Name, vr.Class, vr.NeedsFinalization)
		}
		out = append(out, line)
	}
	return out
}

// actualToFormalSrc passes an array element to a scalar formal: P's
// exposure after the call comes from A, an array.
const actualToFormalSrc = `
      PROGRAM MAIN
      REAL A(10)
      INTEGER I
      DO 5 I = 1, 10
        A(I) = 0
5     CONTINUE
      CALL F(A(3))
      WRITE(*,*) A(3)
      END
      SUBROUTINE F(P)
      REAL P
      INTEGER K
      DO 10 K = 1, 10
        IF (K .GT. 5) THEN
          P = K
        ENDIF
10    CONTINUE
      END
`

// commonOverlapSrc re-declares a common block with scalars over an array:
// S's exposure after G is the read of X(1), an array key that overlaps it.
const commonOverlapSrc = `
      PROGRAM MAIN
      COMMON /B/ X(4)
      INTEGER I
      DO 5 I = 1, 4
        X(I) = 0
5     CONTINUE
      CALL G
      WRITE(*,*) X(1)
      END
      SUBROUTINE G
      COMMON /B/ S, T, U, V
      INTEGER K
      DO 10 K = 1, 10
        IF (K .GT. 5) THEN
          S = K
        ENDIF
10    CONTINUE
      END
`

func sourceProgram(name, src string) *program {
	return &program{name: name, parse: func(t *testing.T) *ir.Program {
		prog, err := minif.Parse(name+".f", src)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return prog
	}}
}

// oracleInputs are the inputs of the scalar-oracle suites: programs(), the
// two fixtures above, and 100 generated programs in two knob settings, a
// small shallow one and a larger one with deeper calls, nests and more
// aliasing.
var oracleInputs = sync.OnceValue(func() []*program {
	out := append([]*program{}, programs()...)
	out = append(out, sourceProgram("actual-to-formal", actualToFormalSrc), sourceProgram("common-overlap", commonOverlapSrc))
	small := corpus.Config{TargetLines: 600, CallDepth: 2, CallFanout: 2, LoopDepth: 2, AliasDensity: 0.2, ReductionMix: 0.3, TripLo: 2, TripHi: 10}
	large := corpus.Config{TargetLines: 1500, CallDepth: 4, CallFanout: 3, LoopDepth: 3, AliasDensity: 0.6, ReductionMix: 0.5, TripLo: 2, TripHi: 10}
	for seed := int64(1); seed <= 50; seed++ {
		for _, cfg := range []corpus.Config{small, large} {
			g := corpus.Generate(seed, cfg)
			out = append(out, sourceProgram(fmt.Sprintf("gen%d-seed%d", cfg.TargetLines, seed), g.Source))
		}
	}
	return out
})

// TestDefaultOracleIsFullScalar pins the parallelizer's default: with no
// oracle configured it decides exactly as under the Full pass's scalar
// oracle.
func TestDefaultOracleIsFullScalar(t *testing.T) {
	for _, p := range oracleInputs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			sum := p.sum(t)
			cfg := parallel.Config{UseReductions: true}
			byDefault := loopVerdicts(parallel.ParallelizeWith(sum, cfg))
			cfg.DeadAtExit = liveness.Analyze(sum, liveness.Full).ScalarOracle()
			explicit := loopVerdicts(parallel.ParallelizeWith(sum, cfg))
			if len(byDefault) != len(explicit) {
				t.Fatalf("%d loops by default, %d under the scalar oracle", len(byDefault), len(explicit))
			}
			for i := range byDefault {
				if byDefault[i] != explicit[i] {
					t.Errorf("default:       %s\nscalar oracle: %s", byDefault[i], explicit[i])
				}
			}
		})
	}
}

// TestRepeatedActualBindsEveryFormal: CALL F(A,A) binds A to P and to Q, so
// the read of A after the call keeps both formals live in F. Mapping the
// actual to one formal only made the other look dead, and F/10 was approved
// with P privatized and its last value lost.
func TestRepeatedActualBindsEveryFormal(t *testing.T) {
	prog, err := minif.Parse("repeated.f", `
      SUBROUTINE F(P,Q)
      REAL P, Q
      INTEGER I
      DO 10 I = 1, 10
        IF (I .LT. 5) P = I
10    CONTINUE
      DO 20 I = 1, 10
        IF (I .GT. 5) Q = I
20    CONTINUE
      END
      PROGRAM MAIN
      REAL A
      A = 0.0
      CALL F(A,A)
      WRITE(*,*) A
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	sum := summary.Analyze(prog)
	loops := map[string]*region.Region{}
	for _, r := range sum.Reg.LoopRegions() {
		loops[r.ID()] = r
	}
	f := prog.Proc("F")
	written := map[string]*ir.Symbol{"F/10": f.Lookup("P").Canon(), "F/20": f.Lookup("Q").Canon()}
	for _, v := range []liveness.Variant{liveness.Full, liveness.OneBit, liveness.FlowInsensitive} {
		in := liveness.Analyze(sum, v)
		for id, sym := range written {
			if in.DeadAtExit(loops[id], sym) {
				t.Errorf("%s: %s is read through A after the call, but looks dead at %s exit", v, sym.Name, id)
			}
		}
	}
	res := parallel.ParallelizeWith(sum, parallel.Config{UseReductions: true})
	for id, sym := range written {
		li := res.Loops[loops[id]]
		if li.Dep.Parallelizable {
			t.Errorf("%s approved although %s is conditionally written and live at exit", id, sym.Name)
		}
	}
}

// scalarOracleDiff compares the restricted pass's answers with the Full
// pass's scalar oracle on every region × every canonical symbol of the
// region's procedure and every symbol the region touches, and returns the
// number of answers compared and the first few that differ.
func scalarOracleDiff(sum *summary.Analysis) (int, []string) {
	restricted := liveness.ScalarOracle(sum)
	full := liveness.Analyze(sum, liveness.Full).ScalarOracle()
	n := 0
	var diffs []string
	for _, r := range allRegions(sum) {
		syms := map[*ir.Symbol]bool{}
		for _, s := range r.Proc.Syms {
			syms[s.Canon()] = true
		}
		if rs := regionSyms(sum, r); rs != nil {
			for s := range rs.Arrays {
				syms[s] = true
			}
		}
		for s := range syms {
			n++
			if got, want := restricted(r, s), full(r, s); got != want && len(diffs) < 10 {
				diffs = append(diffs, fmt.Sprintf("%s %s: ScalarOracle dead=%t, Full dead=%t", r.ID(), s.Name, got, want))
			}
		}
	}
	return n, diffs
}

// TestScalarOracleMatchesFull: the pass restricted to what a scalar question
// can read answers every scalar question as the Full pass does. The two
// fixtures each need one closure step of the restriction: deleting the
// actual→formal step makes P look dead at F/10 in actual-to-formal, and
// deleting the overlapping-common-key step makes S look dead at G/10 in
// common-overlap; both fail this test. Under Full both are live, which the
// test checks first, so a fixture that stops exercising its step is caught.
func TestScalarOracleMatchesFull(t *testing.T) {
	live := map[string][2]string{"actual-to-formal": {"F/10", "P"}, "common-overlap": {"G/10", "S"}}
	for _, p := range oracleInputs() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			sum := p.sum(t)
			if q, ok := live[p.name]; ok {
				full := liveness.Analyze(sum, liveness.Full)
				for _, r := range sum.Reg.LoopRegions() {
					if r.ID() == q[0] && full.DeadAtExit(r, r.Proc.Lookup(q[1]).Canon()) {
						t.Fatalf("%s looks dead at %s under Full; the fixture no longer needs its closure step", q[1], q[0])
					}
				}
			}
			n, diffs := scalarOracleDiff(sum)
			if n == 0 {
				t.Fatal("no answers compared")
			}
			for _, d := range diffs {
				t.Error(d)
			}
		})
	}
}

// FuzzScalarOracle compares the restricted and the Full scalar oracles on
// generated programs across the corpus knob space.
func FuzzScalarOracle(f *testing.F) {
	f.Add(int64(1), 600, 0.2, 0.3, 2, 2, 2, 2, 10)
	f.Add(int64(2), 1500, 0.6, 0.5, 4, 3, 3, 2, 10)
	f.Add(int64(7), 300, 1.0, 1.0, 5, 3, 3, 1, 16)
	f.Fuzz(func(t *testing.T, seed int64, lines int, alias, mix float64,
		depth, fanout, loopDepth, tripLo, tripHi int) {
		cfg := corpus.Config{
			TargetLines:  50 + abs(lines)%1951,
			AliasDensity: clamp01(alias),
			ReductionMix: clamp01(mix),
			CallDepth:    abs(depth) % 6,
			CallFanout:   abs(fanout) % 4,
			LoopDepth:    abs(loopDepth) % 4,
			TripLo:       abs(tripLo)%16 + 1,
			TripHi:       abs(tripHi)%16 + 1,
		}
		if cfg.TripHi < cfg.TripLo {
			cfg.TripLo, cfg.TripHi = cfg.TripHi, cfg.TripLo
		}
		g := corpus.Generate(seed, cfg)
		prog, err := minif.Parse(g.Name, g.Source)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\nseed=%d cfg=%+v", err, seed, cfg)
		}
		if _, diffs := scalarOracleDiff(summary.Analyze(prog)); len(diffs) > 0 {
			t.Fatalf("seed=%d cfg=%+v:\n%s", seed, cfg, strings.Join(diffs, "\n"))
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // math.MinInt
			return 0
		}
		return -x
	}
	return x
}

func clamp01(x float64) float64 {
	if !(x >= 0) { // NaN too
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
