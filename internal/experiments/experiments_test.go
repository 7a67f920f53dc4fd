package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"suifx/internal/session"
	"suifx/internal/workloads"
)

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, " ms"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestFig4_1Shapes(t *testing.T) {
	tab := Fig4_1()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		cov := num(t, r[4])
		if cov < 50 {
			t.Errorf("%s: automatic coverage %v too low", r[0], cov)
		}
		sp := num(t, r[6])
		if sp > 3 {
			t.Errorf("%s: automatic 8p speedup %v too high (paper: 1.0-2.7)", r[0], sp)
		}
	}
}

func TestFig4_7Chain(t *testing.T) {
	tab := Fig4_7()
	// The funnel must narrow: executed >= sequential >= important >=
	// noDyn >= userPar + remaining.
	get := func(row int) int {
		v, _ := strconv.Atoi(tab.Rows[row][5])
		return v
	}
	executed, sequential, important, noDyn, userPar, remaining :=
		get(0), get(1), get(2), get(3), get(4), get(5)
	if !(executed >= sequential && sequential >= important && important >= noDyn) {
		t.Fatalf("funnel violated: %d %d %d %d", executed, sequential, important, noDyn)
	}
	if noDyn < userPar+remaining {
		t.Fatalf("noDyn %d < userPar %d + remaining %d", noDyn, userPar, remaining)
	}
	if userPar == 0 {
		t.Fatal("no user-parallelized loops found")
	}
	if remaining > 2 {
		t.Fatalf("remaining important loops = %d, paper has 2", remaining)
	}
}

func TestFig4_8Restrictions(t *testing.T) {
	tab := Fig4_8()
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "average" {
		t.Fatal("missing average row")
	}
	progLoop, progCR, progAR := num(t, last[3]), num(t, last[4]), num(t, last[5])
	if !(progLoop >= progCR && progCR >= progAR) {
		t.Fatalf("restrictions must shrink slices: %v >= %v >= %v", progLoop, progCR, progAR)
	}
	if progAR > 50 {
		t.Fatalf("restricted slices should be a modest fraction of the loop: %v%%", progAR)
	}
}

func TestFig4_10UserImproves(t *testing.T) {
	tab := Fig4_10()
	for i := 0; i < len(tab.Rows); i += 2 {
		auto8 := num(t, tab.Rows[i][5])
		user8 := num(t, tab.Rows[i+1][5])
		if user8 < auto8 {
			t.Errorf("%s: user speedup %v < auto %v", tab.Rows[i][0], user8, auto8)
		}
	}
	// mdg: the flagship story — no speedup automatically, large with help.
	if a := num(t, tab.Rows[0][5]); a > 1.5 {
		t.Errorf("mdg auto speedup = %v, want ~1.0", a)
	}
	if u := num(t, tab.Rows[1][5]); u < 4 {
		t.Errorf("mdg user speedup = %v, want substantial (paper: 6.0)", u)
	}
}

func TestFig5_7PrecisionOrdering(t *testing.T) {
	tab := Fig5_7()
	for _, r := range tab.Rows {
		fi, ob, full := num(t, r[3]), num(t, r[4]), num(t, r[5])
		if !(full >= ob && ob >= fi) {
			t.Errorf("%s: precision ordering violated: full=%v 1bit=%v fi=%v", r[0], full, ob, fi)
		}
	}
}

func TestFig5_8FullFindsMost(t *testing.T) {
	tab := Fig5_8()
	dead := map[string]map[string]float64{}
	for _, r := range tab.Rows {
		if dead[r[0]] == nil {
			dead[r[0]] = map[string]float64{}
		}
		dead[r[0]][r[1]] = num(t, r[2])
	}
	totalFull, total1bit := 0.0, 0.0
	for _, m := range dead {
		totalFull += m["full"]
		total1bit += m["1-bit"]
	}
	if totalFull < total1bit {
		t.Fatalf("full should find at least as many dead privates: %v vs %v", totalFull, total1bit)
	}
	if totalFull == 0 {
		t.Fatal("full variant found no dead private arrays")
	}
}

func TestFig5_10Hydro2dSplit(t *testing.T) {
	tab := Fig5_10()
	for _, r := range tab.Rows {
		if r[0] != "hydro2d" {
			continue
		}
		if r[1] != "1" {
			t.Fatalf("hydro2d splits = %s, want 1", r[1])
		}
		if num(t, r[3]) < num(t, r[2]) {
			t.Fatalf("split should not hurt: %s -> %s", r[2], r[3])
		}
		return
	}
	t.Fatal("no hydro2d row")
}

func TestFig5_12ContractionShape(t *testing.T) {
	tab := Fig5_12()
	last := tab.Rows[len(tab.Rows)-1] // 32 procs
	without, with := num(t, last[1]), num(t, last[2])
	if with <= without {
		t.Fatalf("contraction should improve 32-proc scaling: %v vs %v", without, with)
	}
	if without > 14 {
		t.Fatalf("uncontracted flo88 should be memory-bound (paper 6.3): %v", without)
	}
	if with < 14 {
		t.Fatalf("contracted flo88 should scale (paper 19.6): %v", with)
	}
}

func TestFig6_4ReductionImpact(t *testing.T) {
	tab := Fig6_4()
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 programs", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		without, with := num(t, r[2]), num(t, r[3])
		if with <= without {
			t.Errorf("%s: reduction recognition should add parallel loops: %v -> %v", r[0], without, with)
		}
	}
}

func TestFig6_6SpeedupImproves(t *testing.T) {
	tab := Fig6_6()
	improved := 0
	for _, r := range tab.Rows {
		if num(t, r[2]) > num(t, r[1]) {
			improved++
		}
	}
	if improved < 9 {
		t.Fatalf("reductions should speed up most programs: %d of %d improved", improved, len(tab.Rows))
	}
}

func TestParallelExecutionValidates(t *testing.T) {
	// §6.5.2: every user-parallelized application validates against its
	// sequential execution when actually run with goroutines.
	for _, name := range []string{"mdg", "arc3d", "flo88"} {
		if err := ValidateUserParallelization(name, 4); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTablesAreSessionNumbers: the Chapter 4 tables and the Guru report
// suifxd serves cannot drift apart. For each ch4 app a session.Manager
// session (liveness off, as Chapter 4) reports Fig 4-1's coverage and as
// many important targets as Fig 4-7 counts, and after the script went
// through Session.Assert, Fig 4-10's user-assisted coverage.
func TestTablesAreSessionNumbers(t *testing.T) {
	fig41, fig47, fig410 := Fig4_1(), Fig4_7(), Fig4_10()
	m := session.NewManager(session.Config{})
	defer m.Close()
	for i, name := range ch4Apps {
		w := workloads.ByName(name)
		s, err := m.Create(context.Background(), w.Name, w.Source, session.Options{NoLiveness: true})
		if err != nil {
			t.Fatal(err)
		}
		g := s.Guru()
		if got, want := pct(g.Coverage), cell(fig41, i, 4); got != want {
			t.Errorf("%s: Guru coverage %s, Fig 4-1 says %s", name, got, want)
		}
		important := 0
		for _, tg := range g.Targets {
			if tg.Important {
				important++
			}
		}
		var inter, intra int
		if _, err := fmt.Sscanf(cell(fig47, 2, 1+i), "%d/%d", &inter, &intra); err != nil || fig47.Rows[2][0] != "important" {
			t.Fatalf("%s: Fig 4-7 important cell %q: %v", name, cell(fig47, 2, 1+i), err)
		}
		if important != inter+intra {
			t.Errorf("%s: Guru lists %d important targets, Fig 4-7 says %d/%d", name, important, inter, intra)
		}
		for _, a := range w.Script() {
			kind := session.KindPrivate
			if a.Independent {
				kind = session.KindIndependent
			}
			if out, err := s.Assert(kind, a.Loop, a.Var); err != nil || !out.Accepted {
				t.Fatalf("%s: assert %+v: err %v, outcome %+v", name, a, err, out)
			}
		}
		if r := fig410.Rows[2*i+1]; r[0] != name || r[1] != "with user input" {
			t.Fatalf("Fig 4-10 row %d is %v", 2*i+1, r)
		} else if got := pct(s.Guru().Coverage); got != r[2] {
			t.Errorf("%s: Guru coverage after the script %s, Fig 4-10 says %s", name, got, r[2])
		}
	}
}
