package liveness_test

import (
	"fmt"
	"testing"

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

// TestDefaultOracleIsFullScalar pins the parallelizer's default: with no
// oracle configured it decides exactly as under the Full pass's scalar
// oracle.
func TestDefaultOracleIsFullScalar(t *testing.T) {
	for _, p := range programs() {
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
	written := map[string]*ir.Symbol{"F/10": sum.Canon(f.Lookup("P")), "F/20": sum.Canon(f.Lookup("Q"))}
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
