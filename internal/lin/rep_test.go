package lin

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// repErr checks the representation invariant every Expr must satisfy:
// variable names strictly increasing, no zero coefficient.
func repErr(e Expr) error {
	for i, t := range e.terms {
		if t.c == 0 {
			return fmt.Errorf("zero coefficient on %q in %v", t.v, e.terms)
		}
		if i > 0 && e.terms[i-1].v >= t.v {
			return fmt.Errorf("terms not strictly increasing by name: %v", e.terms)
		}
	}
	return nil
}

// renderByAccessors renders e the way String does, but from the exported
// accessors alone, so the two can be cross-checked.
func renderByAccessors(e Expr) string {
	var parts []string
	for _, v := range e.Vars() {
		switch c := e.CoefOf(v); {
		case c == 1:
			parts = append(parts, "+", v)
		case c == -1:
			parts = append(parts, "-", v)
		case c > 0:
			parts = append(parts, "+", fmt.Sprintf("%d*%s", c, v))
		default:
			parts = append(parts, "-", fmt.Sprintf("%d*%s", -c, v))
		}
	}
	switch {
	case len(parts) == 0:
		return fmt.Sprint(e.Const)
	case e.Const > 0:
		parts = append(parts, "+", fmt.Sprint(e.Const))
	case e.Const < 0:
		parts = append(parts, "-", fmt.Sprint(-e.Const))
	}
	if parts[0] == "-" {
		parts[1] = "-" + parts[1]
	}
	return strings.Join(parts[1:], " ")
}

// checkSystemRep fails the test if any constraint of s breaks the
// representation invariant or renders differently through the accessors.
func checkSystemRep(t *testing.T, what string, s *System) {
	t.Helper()
	for _, c := range s.Cons {
		if err := repErr(c.E); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got, want := c.E.String(), renderByAccessors(c.E); got != want {
			t.Fatalf("%s: String() = %q, accessors render %q", what, got, want)
		}
	}
}

// TestExprOpsNeverAlias guards the immutability the term vectors rely on —
// AddConst, Scale(1), System.Clone and the summary cache share term slices,
// across goroutines too. No operation may write to an operand, not even into
// the spare capacity behind its terms, and no two results may share storage
// that a later operation appends to.
func TestExprOpsNeverAlias(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "d", "e", "f"}
	spare := 0
	// randExpr sums random terms, so cancellations leave its term slice with
	// spare capacity an aliasing append would land in.
	randExpr := func() Expr {
		e := NewExpr(r.Int63n(9) - 4)
		for k := r.Intn(6); k >= 0; k-- {
			e = e.Add(Term(names[r.Intn(len(names))], r.Int63n(7)-3))
		}
		if cap(e.terms) > len(e.terms) {
			spare++
		}
		return e
	}
	type snap struct {
		text    string
		backing []term
	}
	snapshot := func(e Expr) snap { return snap{e.String(), slices.Clone(e.terms[:cap(e.terms)])} }
	same := func(e Expr, s snap) bool {
		return e.String() == s.text && slices.Equal(e.terms[:cap(e.terms)], s.backing)
	}
	for iter := 0; iter < 2000; iter++ {
		e, o := randExpr(), randExpr()
		v, w := names[r.Intn(len(names))], names[r.Intn(len(names))]
		k := r.Int63n(7) - 3
		se, so := snapshot(e), snapshot(o)
		results := []Expr{
			e.Add(o), e.Sub(o), e.Scale(k), e.Scale(1), e.AddConst(k), e.Substitute(v, o), e.Rename(v, w),
			Constraint{e}.normalize().E, combine(k, e, v, 2, o), NewSystem().AddGE(e).Clone().Cons[0].E,
		}
		snaps := make([]snap, len(results))
		for i, x := range results {
			if err := repErr(x); err != nil {
				t.Fatalf("iter %d result %d: %v", iter, i, err)
			}
			snaps[i] = snapshot(x)
		}
		// Every result becomes an operand in turn: had it borrowed e's, o's or
		// a sibling's storage, these would scribble on it.
		for _, x := range results {
			x.Add(o)
			x.Sub(e)
			x.Substitute(w, e)
			x.Rename(w, v)
			x.Scale(-k)
			Constraint{x}.normalize()
		}
		if !same(e, se) || !same(o, so) {
			t.Fatalf("iter %d: an operand changed: %v (was %s), %v (was %s)", iter, e, se.text, o, so.text)
		}
		for i, x := range results {
			if !same(x, snaps[i]) {
				t.Fatalf("iter %d: result %d changed after later operations: %v, was %s", iter, i, x, snaps[i].text)
			}
		}
	}
	if spare == 0 {
		t.Fatal("no operand had spare capacity: the test exercised nothing")
	}
}

// TestSectionOpsNeverWriteOperands guards the rule sections are shared on: a
// Section — fields, Polys slice, the spare capacity behind it, every
// polyhedron — is never written once built, so an operation may hand an
// operand back and summaries, liveness results and cached analyses may hold
// the same section. Operands include empty, inexact, unnormalised (a
// polyhedron contained in another) and spare-capacity ones; every result
// becomes an operand in turn.
func TestSectionOpsNeverWriteOperands(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	spare, shared := 0, 0
	randPoly := func() *System {
		lo := r.Int63n(7) - 3
		sys := NewSystem().AddRange(DimVar(0), NewExpr(lo), NewExpr(lo+r.Int63n(4)))
		switch r.Intn(3) {
		case 1:
			sys.AddGE(Var("n").Sub(Var(DimVar(0))).AddConst(r.Int63n(3))) // $d0 <= n + c
		case 2:
			sys.AddGE(Var(DimVar(0)).Sub(Var("i"))) // $d0 >= i
		}
		return sys
	}
	randSection := func() *Section {
		n := r.Intn(4)
		s := &Section{NDim: 1, Polys: make([]*System, n, n+r.Intn(3)), Exact: r.Intn(3) > 0}
		for i := range s.Polys {
			s.Polys[i] = randPoly()
		}
		if cap(s.Polys) > len(s.Polys) {
			spare++
		}
		return s
	}
	type snap struct {
		text    string
		backing []*System
	}
	snapshot := func(s *Section) snap {
		parts := make([]string, len(s.Polys))
		for i, p := range s.Polys {
			parts[i] = p.String()
		}
		return snap{fmt.Sprint(s.NDim, s.Exact, parts), slices.Clone(s.Polys[:cap(s.Polys)])}
	}
	same := func(s *Section, was snap) bool {
		now := snapshot(s)
		return now.text == was.text && slices.Equal(now.backing, was.backing)
	}
	for iter := 0; iter < 1500; iter++ {
		a, b := randSection(), randSection()
		sa, sb := snapshot(a), snapshot(b)
		results := []*Section{
			a.Union(b), b.Union(a), a.Union(a), a.Subtract(b), a.Subtract(EmptySection(1)), a.Intersect(b),
			a.Project("n"), a.Project(), a.Substitute("n", Var("i").AddConst(1)), a.Rename("i", "k"),
			EmptySection(1).Union(a),
		}
		snaps := make([]snap, len(results))
		for i, x := range results {
			snaps[i] = snapshot(x)
			if x == a || x == b {
				shared++
				if x == a && snaps[i].text != sa.text || x == b && snaps[i].text != sb.text {
					t.Fatalf("iter %d result %d: an operand was handed back changed", iter, i)
				}
			}
		}
		for _, x := range results {
			x.Union(b)
			b.Union(x)
			x.Subtract(a)
			x.Intersect(b)
			x.Project("i")
			x.Substitute("i", NewExpr(2))
			x.Rename("n", "m")
		}
		if !same(a, sa) || !same(b, sb) {
			t.Fatalf("iter %d: an operand changed: %v (was %s), %v (was %s)", iter, a, sa.text, b, sb.text)
		}
		for i, x := range results {
			if !same(x, snaps[i]) {
				t.Fatalf("iter %d: result %d changed after later operations: %v, was %s", iter, i, x, snaps[i].text)
			}
		}
	}
	for n := 0; n < 3; n++ {
		if e := EmptySection(n); len(e.Polys) != 0 || !e.Exact || e.NDim != n {
			t.Fatalf("the shared empty %d-dimensional section was written: %+v", n, *e)
		}
	}
	if spare == 0 || shared == 0 {
		t.Fatalf("exercised nothing: %d operands with spare capacity, %d results shared with an operand", spare, shared)
	}
}
