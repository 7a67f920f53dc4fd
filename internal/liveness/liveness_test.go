package liveness

import (
	"testing"

	"suifx/internal/minif"
	"suifx/internal/region"
	"suifx/internal/summary"
)

func analyzeAll(t *testing.T, src string) (*summary.Analysis, map[Variant]*Info) {
	t.Helper()
	prog, err := minif.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	sum := summary.Analyze(prog)
	return sum, map[Variant]*Info{
		Full:            Analyze(sum, Full),
		OneBit:          Analyze(sum, OneBit),
		FlowInsensitive: Analyze(sum, FlowInsensitive),
	}
}

func findLoop(t *testing.T, sum *summary.Analysis, id string) *region.Region {
	t.Helper()
	for _, r := range sum.Reg.LoopRegions() {
		if r.ID() == id {
			return r
		}
	}
	t.Fatalf("no loop %s", id)
	return nil
}

const tmpArraySrc = `
      PROGRAM main
      REAL a(100), tmp(100), out(100)
      INTEGER i, j
      DO 10 i = 1, 100
        DO 5 j = 1, 100
          tmp(j) = a(j) * 2.0
5       CONTINUE
        DO 8 j = 1, 100
          out(j) = out(j) + tmp(j)
8       CONTINUE
10    CONTINUE
      WRITE(*,*) out(1)
      END
`

func TestDeadAtExitTemporary(t *testing.T) {
	sum, infos := analyzeAll(t, tmpArraySrc)
	outer := findLoop(t, sum, "MAIN/10")
	tmp := sum.Prog.Main().Lookup("TMP").Canon()
	outv := sum.Prog.Main().Lookup("OUT").Canon()
	for _, v := range []Variant{Full, OneBit} {
		if !infos[v].DeadAtExit(outer, tmp) {
			t.Errorf("%v: tmp should be dead at MAIN/10 exit", v)
		}
	}
	// Flow-insensitive: tmp is exposed in a sibling (the loop itself), so it
	// conservatively stays live — the Fig 5-7 precision gap.
	if infos[FlowInsensitive].DeadAtExit(outer, tmp) {
		t.Error("flow-insensitive: tmp should look live at MAIN/10 exit")
	}
	for v, in := range infos {
		if in.DeadAtExit(outer, outv) {
			t.Errorf("%v: out is printed afterwards, must be live", v)
		}
	}
}

func TestInnerLoopLiveness(t *testing.T) {
	// tmp written by loop 5 is read by loop 8 in the same iteration: live
	// at loop 5's exit, dead at loop 8's exit.
	sum, infos := analyzeAll(t, tmpArraySrc)
	l5 := findLoop(t, sum, "MAIN/5")
	l8 := findLoop(t, sum, "MAIN/8")
	tmp := sum.Prog.Main().Lookup("TMP").Canon()
	full := infos[Full]
	if full.DeadAtExit(l5, tmp) {
		t.Error("tmp is read by loop 8: live at loop 5 exit")
	}
	if !full.DeadAtExit(l8, tmp) {
		t.Error("tmp is rewritten next iteration before any read: dead at loop 8 exit")
	}
	// The 1-bit variant has no kill: the loop-5 rewrite cannot cover the
	// loop-8 read of tmp from the next iteration... at loop 8's exit the
	// next read of tmp (iteration i+1's loop 8) is preceded by a full
	// rewrite in iteration i+1's loop 5, which only the killing transfer
	// function can see.
	if infos[OneBit].DeadAtExit(l8, tmp) {
		t.Error("1-bit variant should conservatively report tmp live at loop 8 exit")
	}
	if infos[FlowInsensitive].DeadAtExit(l8, tmp) {
		t.Error("flow-insensitive variant should report tmp live at loop 8 exit")
	}
}

func TestVariantPrecisionOrdering(t *testing.T) {
	// dead(full) >= dead(1-bit) >= dead(flow-insensitive), per Fig 5-7.
	_, infos := analyzeAll(t, tmpArraySrc)
	_, _, dFull := infos[Full].DeadStats()
	_, _, d1 := infos[OneBit].DeadStats()
	_, _, dFI := infos[FlowInsensitive].DeadStats()
	if dFull < d1 || d1 < dFI {
		t.Fatalf("precision ordering violated: full=%d, 1bit=%d, fi=%d", dFull, d1, dFI)
	}
}

const hydro2dSrc = `
      SUBROUTINE tistep
      COMMON /varh/ vz(10,10)
      REAL x
      INTEGER i, j
      DO 10 j = 1, 10
        DO 10 i = 1, 10
          x = vz(i,j)
10    CONTINUE
      END
      SUBROUTINE trans2
      COMMON /varh/ vz1(0:10,10)
      INTEGER i, j
      DO 10 j = 1, 10
        DO 10 i = 0, 10
          vz1(i,j) = i + j
10    CONTINUE
      END
      SUBROUTINE fct
      COMMON /varh/ vz1(0:10,10)
      REAL y
      INTEGER i, j
      DO 10 j = 1, 10
        DO 10 i = 0, 10
          y = vz1(i,j)
10    CONTINUE
      END
      SUBROUTINE advnce
      CALL trans2
      CALL fct
      END
      SUBROUTINE vps
      COMMON /varh/ vz(10,10)
      INTEGER i, j
      DO 10 j = 1, 10
        DO 10 i = 1, 10
          vz(i,j) = i * j
10    CONTINUE
      END
      SUBROUTINE check
      CALL vps
      END
      PROGRAM hydro2d
      INTEGER icnt
      DO 100 icnt = 1, 10
        CALL tistep
        CALL advnce
        CALL check
100   CONTINUE
      END
`

func TestCommonBlockSplitHydro2d(t *testing.T) {
	// Fig 5-9: vz and vz1 share /varh/ with different shapes but disjoint
	// live ranges — the full algorithm splits them, the weaker ones cannot.
	_, infos := analyzeAll(t, hydro2dSrc)
	splits := infos[Full].CommonBlockSplits()
	if len(splits) != 1 {
		t.Fatalf("full variant splits = %v, want exactly 1", splits)
	}
	if splits[0].Block != "VARH" {
		t.Fatalf("split block = %s", splits[0].Block)
	}
	if got := infos[OneBit].CommonBlockSplits(); len(got) != 0 {
		t.Fatalf("1-bit variant should find no splits, got %v", got)
	}
}

func TestNoSplitWhenLiveRangesOverlap(t *testing.T) {
	// vz's value flows across the same region where vz1 is written: no split.
	src := `
      SUBROUTINE wr1
      COMMON /blk/ v1(100)
      INTEGER i
      DO 10 i = 1, 100
        v1(i) = i
10    CONTINUE
      END
      SUBROUTINE rd1
      COMMON /blk/ v1(100)
      REAL x
      x = v1(50)
      END
      SUBROUTINE wr2
      COMMON /blk/ v2(0:99)
      v2(0) = 1.0
      END
      PROGRAM main
      CALL wr1
      CALL wr2
      CALL rd1
      END
`
	_, infos := analyzeAll(t, src)
	if got := infos[Full].CommonBlockSplits(); len(got) != 0 {
		t.Fatalf("interleaved live ranges must not split, got %v", got)
	}
}

func TestContractionPsmoo(t *testing.T) {
	// Fig 5-11(b): inside the j loop, t(*,j) and d(*,j) are produced and
	// consumed within the iteration; both are dead afterwards, so they
	// contract to one column.
	src := `
      PROGRAM main
      REAL d(100,100), t(100,100), r(100,100)
      INTEGER i, j
      DO 50 j = 2, 99
        d(1,j) = 0.0
        DO 30 i = 2, 99
          t(i,j) = d(i-1,j) * 2.0
          d(i,j) = t(i,j) * 0.5
30      CONTINUE
        DO 40 i = 2, 99
          r(i,j) = d(i,j) * 3.0
40      CONTINUE
50    CONTINUE
      WRITE(*,*) r(5,5)
      END
`
	sum, infos := analyzeAll(t, src)
	full := infos[Full]
	cons := full.Contractions()
	byName := map[string]Contraction{}
	for _, c := range cons {
		if c.Loop.ID() == "MAIN/50" {
			byName[c.Sym.Name] = c
		}
	}
	if _, ok := byName["T"]; !ok {
		t.Fatalf("t should contract in MAIN/50: %v", cons)
	}
	if _, ok := byName["D"]; !ok {
		t.Fatalf("d should contract in MAIN/50: %v", cons)
	}
	if _, ok := byName["R"]; ok {
		t.Fatal("r is live after the loop; must not contract")
	}
	// One column per iteration: footprint 100 of 10000.
	if c := byName["T"]; c.FootprintElems != 100 || c.FullElems != 10000 {
		t.Fatalf("T contraction footprint = %d/%d, want 100/10000", c.FootprintElems, c.FullElems)
	}
	_ = sum
}

func TestProcExitMeetOverCallSites(t *testing.T) {
	// f's writes are dead after one call site but live after the other:
	// the meet must keep them live.
	src := `
      SUBROUTINE f
      COMMON /blk/ w(10)
      INTEGER i
      DO 10 i = 1, 10
        w(i) = i
10    CONTINUE
      END
      PROGRAM main
      COMMON /blk/ w(10)
      REAL x
      CALL f
      x = w(3)
      CALL f
      END
`
	sum, infos := analyzeAll(t, src)
	full := infos[Full]
	ftop := sum.Reg.ProcTop["F"]
	w := sum.Prog.Proc("F").Lookup("W").Canon()
	if e := full.ExitSum[ftop][w]; e == nil || e.IsEmpty() {
		t.Fatal("w must be exposed after F (read at first call site)")
	}
	l10 := findLoop(t, sum, "F/10")
	if full.DeadAtExit(l10, w) {
		t.Fatal("w live after first call: not dead at F/10 exit")
	}
}

func TestLiveAtExitSection(t *testing.T) {
	// Only w(1:5) is read afterwards: the live section is a strict subset.
	src := `
      PROGRAM main
      REAL w(100), s
      INTEGER i
      DO 10 i = 1, 100
        w(i) = i
10    CONTINUE
      s = 0.0
      DO 20 i = 1, 5
        s = s + w(i)
20    CONTINUE
      END
`
	sum, infos := analyzeAll(t, src)
	full := infos[Full]
	l10 := findLoop(t, sum, "MAIN/10")
	w := sum.Prog.Main().Lookup("W").Canon()
	live := full.LiveAtExit(l10, w)
	if !live.ContainsIndex([]int64{3}, nil) {
		t.Fatalf("live section %v should contain 3", live)
	}
	if live.ContainsIndex([]int64{50}, nil) {
		t.Fatalf("live section %v should exclude 50", live)
	}
	if full.DeadAtExit(l10, w) {
		t.Fatal("w partially live: not dead")
	}
}
