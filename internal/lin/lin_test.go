package lin

import (
	"testing"
)

func TestExprArithmetic(t *testing.T) {
	e := Var("i").Scale(2).Add(NewExpr(3)).Sub(Var("j"))
	if got := e.String(); got != "2*i - j + 3" {
		t.Fatalf("String = %q", got)
	}
	v, err := e.Eval(map[string]int64{"i": 5, "j": 4})
	if err != nil || v != 9 {
		t.Fatalf("Eval = %d, %v", v, err)
	}
	if _, err := e.Eval(map[string]int64{"i": 5}); err == nil {
		t.Fatal("Eval with unbound variable should error")
	}
}

func TestExprSubstitute(t *testing.T) {
	e := Var("i").Scale(2).Add(Var("j")) // 2i + j
	got := e.Substitute("i", Var("k").AddConst(1))
	want := Var("k").Scale(2).Add(Var("j")).AddConst(2)
	if !got.Equal(want) {
		t.Fatalf("Substitute = %v, want %v", got, want)
	}
}

func TestExprCancellation(t *testing.T) {
	e := Var("i").Sub(Var("i"))
	if !e.IsConst() || e.Const != 0 {
		t.Fatalf("i - i = %v, want 0", e)
	}
}

func TestSystemEmptiness(t *testing.T) {
	// i >= 1, i <= 0 is empty.
	s := NewSystem().AddGE(Var("i").AddConst(-1)).AddGE(Var("i").Scale(-1))
	if !s.IsEmpty() {
		t.Fatal("contradictory system not detected as empty")
	}
	// 1 <= i <= 10 is nonempty.
	s2 := NewSystem().AddRange("i", NewExpr(1), NewExpr(10))
	if s2.IsEmpty() {
		t.Fatal("satisfiable system reported empty")
	}
}

func TestSystemEliminate(t *testing.T) {
	// 1 <= i <= n, d = i  -- eliminating i gives 1 <= d <= n.
	s := NewSystem().
		AddRange("i", NewExpr(1), Var("n")).
		AddEq(Var("d").Sub(Var("i")))
	p := s.Eliminate("i")
	// d=0 with n=10 must be excluded; d=5 included.
	if p.ContainsPoint(map[string]int64{"d": 0, "n": 10}) {
		t.Fatalf("projection %v should exclude d=0", p)
	}
	if !p.ContainsPoint(map[string]int64{"d": 5, "n": 10}) {
		t.Fatalf("projection %v should include d=5", p)
	}
}

func TestSystemImplies(t *testing.T) {
	s := NewSystem().AddRange("i", NewExpr(5), NewExpr(10))
	if !s.Implies(Constraint{Var("i").AddConst(-1)}) { // i >= 1
		t.Fatal("5<=i<=10 should imply i>=1")
	}
	if s.Implies(Constraint{Var("i").AddConst(-6)}) { // i >= 6
		t.Fatal("5<=i<=10 should not imply i>=6")
	}
}

func TestSystemContainment(t *testing.T) {
	inner := NewSystem().AddRange("d", NewExpr(2), NewExpr(5))
	outer := NewSystem().AddRange("d", NewExpr(1), NewExpr(10))
	if !inner.ContainedIn(outer) {
		t.Fatal("[2,5] should be contained in [1,10]")
	}
	if outer.ContainedIn(inner) {
		t.Fatal("[1,10] should not be contained in [2,5]")
	}
}

func TestConstraintNormalize(t *testing.T) {
	// 2i - 3 >= 0  =>  i >= 2 over integers (i >= ceil(3/2)).
	_, c := Constraint{Var("i").Scale(2).AddConst(-3)}.normalize(nil)
	if got := c.E.CoefOf("i"); got != 1 {
		t.Fatalf("coef = %d", got)
	}
	if c.E.Const != -2 {
		t.Fatalf("const = %d, want -2 (i - 2 >= 0)", c.E.Const)
	}
}

func TestSectionUnionIntersect(t *testing.T) {
	a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(1), NewExpr(5)))
	b := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(4), NewExpr(9)))
	u := a.Union(b)
	for _, i := range []int64{1, 5, 9} {
		if !u.ContainsIndex([]int64{i}, nil) {
			t.Fatalf("union should contain %d", i)
		}
	}
	if u.ContainsIndex([]int64{10}, nil) {
		t.Fatal("union should not contain 10")
	}
	x := a.Intersect(b)
	if !x.ContainsIndex([]int64{4}, nil) || x.ContainsIndex([]int64{2}, nil) {
		t.Fatalf("intersection wrong: %v", x)
	}
}

func TestSectionDisjoint(t *testing.T) {
	a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(1), NewExpr(5)))
	b := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(6), NewExpr(9)))
	if a.Intersects(b) {
		t.Fatal("[1,5] and [6,9] should be disjoint")
	}
}

func TestSectionSubtract(t *testing.T) {
	// [1,10] \ [1,10] = empty.
	a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(1), NewExpr(10)))
	if got := a.Subtract(a); !got.IsEmpty() {
		t.Fatalf("a \\ a = %v, want empty", got)
	}
	// [1,10] \ [1,5] = [6,10] (exact single-constraint cut).
	b := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(1), NewExpr(5)))
	diff := a.Subtract(b)
	if diff.ContainsIndex([]int64{5}, nil) {
		t.Fatalf("diff %v should not contain 5", diff)
	}
	if !diff.ContainsIndex([]int64{6}, nil) || !diff.ContainsIndex([]int64{10}, nil) {
		t.Fatalf("diff %v should contain [6,10]", diff)
	}
}

func TestSectionProjectLoopClosure(t *testing.T) {
	// Access a(i) for i in 1..n: section {$d0 = i, 1 <= i <= n};
	// closure (projecting i) is {1 <= $d0 <= n}.
	sys := NewSystem().
		AddEq(Var(DimVar(0)).Sub(Var("i"))).
		AddRange("i", NewExpr(1), Var("n"))
	sec := NewSection(1, sys).Project("i")
	env := map[string]int64{"n": 100}
	if !sec.ContainsIndex([]int64{1}, env) || !sec.ContainsIndex([]int64{100}, env) {
		t.Fatalf("closure %v should contain [1,100]", sec)
	}
	if sec.ContainsIndex([]int64{0}, env) || sec.ContainsIndex([]int64{101}, env) {
		t.Fatalf("closure %v should exclude 0 and 101", sec)
	}
}

func TestSectionContainment2D(t *testing.T) {
	inner := NewSection(2, NewSystem().
		AddRange(DimVar(0), NewExpr(2), NewExpr(3)).
		AddRange(DimVar(1), NewExpr(2), NewExpr(3)))
	outer := NewSection(2, NewSystem().
		AddRange(DimVar(0), NewExpr(1), NewExpr(10)).
		AddRange(DimVar(1), NewExpr(1), NewExpr(10)))
	if !inner.ContainedIn(outer) {
		t.Fatal("2x2 block should be inside 10x10 block")
	}
	if outer.ContainedIn(inner) {
		t.Fatal("10x10 not inside 2x2")
	}
}

func TestWholeSectionInexact(t *testing.T) {
	w := WholeSection(1)
	if w.Exact {
		t.Fatal("whole section must be marked inexact")
	}
	if !w.ContainsIndex([]int64{123456}, nil) {
		t.Fatal("whole section contains everything")
	}
	a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(1), NewExpr(5)))
	if !a.ContainedIn(w) {
		t.Fatal("any section is contained in the whole section")
	}
}

func TestSectionUnionSubsumption(t *testing.T) {
	a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(1), NewExpr(10)))
	b := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(3), NewExpr(4)))
	u := a.Union(b)
	if len(u.Polys) != 1 {
		t.Fatalf("subsumed polyhedron not merged: %v", u)
	}
}
