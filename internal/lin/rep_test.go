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
