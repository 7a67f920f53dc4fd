// Package lin implements systems of integer linear inequalities and the
// polyhedral operations the SUIF array analyses are built on: intersection,
// union-of-polyhedra array sections, Fourier–Motzkin projection (the paper's
// "closure" operator), emptiness and containment tests.
//
// Array regions are represented, exactly as in the paper (§2.4, §5.2.1), as
// sets of systems of linear inequalities whose integer solutions are the
// accessed index tuples.
package lin

import (
	"fmt"
	"strings"
)

// Expr is an affine expression: a sum of integer-coefficient terms over named
// variables plus an integer constant. The zero value is the constant 0.
//
// The terms are sorted by variable name, carry no zero coefficient and are
// never written after the Expr is built, so values share term slices freely
// (AddConst, Scale(1), System.Clone, the summary cache across goroutines).
type Expr struct {
	terms []term
	Const int64
}

type term struct {
	v string
	c int64
}

// NewExpr returns the affine expression with the given constant term.
func NewExpr(c int64) Expr { return Expr{Const: c} }

// Var returns the expression consisting of the single variable v.
func Var(v string) Expr { return Term(v, 1) }

// Term returns the expression c*v.
func Term(v string, c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	return Expr{terms: []term{{v, c}}}
}

// CoefOf returns the coefficient of variable v (0 if absent).
func (e Expr) CoefOf(v string) int64 {
	for _, t := range e.terms {
		if t.v == v {
			return t.c
		}
	}
	return 0
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr { return combine(1, e, "", 1, o) }

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return combine(1, e, "", -1, o) }

// Scale returns k*e.
func (e Expr) Scale(k int64) Expr {
	if k == 1 {
		return e
	}
	return combine(k, e, "", 0, Expr{})
}

// AddConst returns e + k.
func (e Expr) AddConst(k int64) Expr { return Expr{e.terms, e.Const + k} }

// IsConst reports whether e has no variable terms.
func (e Expr) IsConst() bool { return len(e.terms) == 0 }

// Vars returns the variables of e in sorted order.
func (e Expr) Vars() []string {
	vs := make([]string, len(e.terms))
	for i, t := range e.terms {
		vs[i] = t.v
	}
	return vs
}

// Eval evaluates e under the given assignment. Unassigned variables are an
// error so callers never silently treat a symbolic value as zero.
func (e Expr) Eval(env map[string]int64) (int64, error) {
	sum := e.Const
	for _, t := range e.terms {
		val, ok := env[t.v]
		if !ok {
			return 0, fmt.Errorf("lin: unbound variable %q", t.v)
		}
		sum += t.c * val
	}
	return sum, nil
}

// Substitute returns e with every occurrence of v replaced by repl.
func (e Expr) Substitute(v string, repl Expr) Expr {
	c := e.CoefOf(v)
	if c == 0 {
		return e
	}
	return combine(1, e, v, c, repl)
}

// Rename returns e with variable old renamed to new.
func (e Expr) Rename(old, new string) Expr { return e.Substitute(old, Var(new)) }

// Equal reports whether e and o denote the same affine function.
func (e Expr) Equal(o Expr) bool { return e.Const == o.Const && sameCoefs(e, o) }

func sameCoefs(a, b Expr) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for i, t := range a.terms {
		if t != b.terms[i] {
			return false
		}
	}
	return true
}

// String renders e deterministically, e.g. "2*i - j + 3".
func (e Expr) String() string {
	var b strings.Builder
	for i, t := range e.terms {
		first, v, c := i == 0, t.v, t.c
		switch {
		case first && c == 1:
			b.WriteString(v)
		case first && c == -1:
			b.WriteString("-" + v)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			b.WriteString(" + " + v)
		case c == -1:
			b.WriteString(" - " + v)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, v)
		}
	}
	switch {
	case e.IsConst():
		fmt.Fprintf(&b, "%d", e.Const)
	case e.Const > 0:
		fmt.Fprintf(&b, " + %d", e.Const)
	case e.Const < 0:
		fmt.Fprintf(&b, " - %d", -e.Const)
	}
	return b.String()
}

// combine returns ka*(a without its drop term) + kb*b by one merge of the two
// sorted term lists into one fresh slice — every operation that builds new
// terms, and the inner-loop step of Fourier–Motzkin elimination.
func combine(ka int64, a Expr, drop string, kb int64, b Expr) Expr {
	at, bt := a.terms, b.terms
	ts := make([]term, 0, len(at)+len(bt))
	for len(at) > 0 || len(bt) > 0 {
		var t term
		switch cmp := order(at, bt); {
		case cmp < 0:
			t, at = term{at[0].v, ka * at[0].c}, at[1:]
			if t.v == drop {
				continue
			}
		case cmp > 0:
			t, bt = term{bt[0].v, kb * bt[0].c}, bt[1:]
		default:
			t = term{bt[0].v, kb * bt[0].c}
			if t.v != drop {
				t.c += ka * at[0].c
			}
			at, bt = at[1:], bt[1:]
		}
		if t.c != 0 {
			ts = append(ts, t)
		}
	}
	return Expr{ts, ka*a.Const + kb*b.Const}
}

// order compares the heads of two term lists by name; an exhausted list
// sorts last.
func order(at, bt []term) int {
	switch {
	case len(bt) == 0:
		return -1
	case len(at) == 0:
		return 1
	}
	return strings.Compare(at[0].v, bt[0].v)
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
