package lin

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// A Constraint is the inequality Expr >= 0.
type Constraint struct {
	E Expr
}

// String renders the constraint, e.g. "i - 1 >= 0".
func (c Constraint) String() string { return c.E.String() + " >= 0" }

// normalize divides the constraint by the GCD of its coefficients, tightening
// the constant term toward the feasible side (integer reasoning: a*x >= -b
// with gcd g on a implies g*(x') >= -b, i.e. x' >= ceil(-b/g)).
func (c Constraint) normalize() Constraint {
	var g int64
	for _, t := range c.E.terms {
		g = gcd64(g, t.c)
	}
	if g <= 1 {
		return c
	}
	ts := make([]term, len(c.E.terms))
	for i, t := range c.E.terms {
		ts[i] = term{t.v, t.c / g}
	}
	// e >= 0  ==  sum + Const >= 0  ==  sum >= -Const; divide by g and
	// round the bound up: sum/g >= ceil(-Const/g), so Const' = floor(Const/g).
	return Constraint{Expr{ts, floorDiv(c.E.Const, g)}}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// A System is a conjunction of linear constraints; its integer solutions form
// (the integer points of) a convex polyhedron. The zero value is the
// unconstrained system (the whole space).
type System struct {
	Cons []Constraint

	// empt caches the result of IsEmpty: 0 unknown, 1 empty, 2 nonempty.
	// Containment tests re-query emptiness of the same unchanged system many
	// times (once per candidate polyhedron in a section), so the cache turns
	// repeated Fourier–Motzkin runs into one. Every in-package mutation of
	// Cons resets it. Atomic because finished systems are shared read-only
	// across concurrent analyses (the summary cache), and the lazy memo write
	// is the one mutation that survives construction; racing fills are
	// idempotent — emptiness is a pure function of Cons.
	empt atomic.Int32
}

const (
	emptUnknown int32 = iota
	emptEmpty
	emptNonEmpty
)

// NewSystem returns an empty (unconstrained) system.
func NewSystem() *System { return &System{} }

// Clone returns an independent copy of s: the constraint slice is fresh, the
// constraint expressions are shared. Exprs are immutable once built (every
// Expr operation allocates), so sharing them is indistinguishable from a deep
// copy. The emptiness cache carries over — the clone has the identical
// constraint set.
func (s *System) Clone() *System {
	out := &System{Cons: make([]Constraint, len(s.Cons))}
	out.empt.Store(s.empt.Load())
	copy(out.Cons, s.Cons)
	return out
}

// AddGE adds the constraint e >= 0 and returns s for chaining.
func (s *System) AddGE(e Expr) *System {
	s.Cons = append(s.Cons, Constraint{e}.normalize())
	s.empt.Store(emptUnknown)
	return s
}

// AddLE adds e <= 0, i.e. -e >= 0.
func (s *System) AddLE(e Expr) *System { return s.AddGE(e.Scale(-1)) }

// AddEq adds e == 0 as a pair of inequalities.
func (s *System) AddEq(e Expr) *System { return s.AddGE(e).AddLE(e) }

// AddRange constrains lo <= v <= hi for affine bounds lo, hi.
func (s *System) AddRange(v string, lo, hi Expr) *System {
	s.AddGE(Var(v).Sub(lo)) // v - lo >= 0
	s.AddGE(hi.Sub(Var(v))) // hi - v >= 0
	return s
}

// Vars returns all variables mentioned in s, sorted.
func (s *System) Vars() []string {
	var buf [16]string
	vs := buf[:0]
	for _, c := range s.Cons {
		for _, t := range c.E.terms {
			if !slices.Contains(vs, t.v) {
				vs = append(vs, t.v)
			}
		}
	}
	slices.Sort(vs)
	return slices.Clone(vs)
}

// Intersect returns the conjunction of s and o.
func (s *System) Intersect(o *System) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons)+len(o.Cons))}
	out.Cons = append(out.Cons, s.Cons...)
	out.Cons = append(out.Cons, o.Cons...)
	return out
}

// Substitute replaces variable v by the affine expression repl everywhere.
func (s *System) Substitute(v string, repl Expr) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons))}
	for _, c := range s.Cons {
		out.Cons = append(out.Cons, Constraint{c.E.Substitute(v, repl)}.normalize())
	}
	return out
}

// Rename renames variable old to new everywhere.
func (s *System) Rename(old, new string) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons))}
	for _, c := range s.Cons {
		out.Cons = append(out.Cons, Constraint{c.E.Rename(old, new)})
	}
	return out
}

// ContainsPoint reports whether the integer assignment env satisfies every
// constraint. Variables of s missing from env make the result false.
func (s *System) ContainsPoint(env map[string]int64) bool {
	for _, c := range s.Cons {
		v, err := c.E.Eval(env)
		if err != nil || v < 0 {
			return false
		}
	}
	return true
}

// Eliminate removes variable v by Fourier–Motzkin elimination, producing a
// system over the remaining variables whose rational solution set is the
// projection of s. This is the paper's closure operator building block.
func (s *System) Eliminate(v string) *System {
	// co*v + r >= 0 is a lower bound on v when co > 0 (v >= -r/co), an upper
	// bound when co < 0 (v <= r/(-co)). Counting them first sizes the output
	// exactly: the constraints free of v, then one per lower × upper pair.
	var buf [32]int64
	coefs, nlo, nup := buf[:0], 0, 0
	for _, c := range s.Cons {
		co := c.E.CoefOf(v)
		coefs = append(coefs, co)
		if co > 0 {
			nlo++
		} else if co < 0 {
			nup++
		}
	}
	out := &System{Cons: make([]Constraint, 0, len(s.Cons)-nlo-nup+nlo*nup)}
	for i, c := range s.Cons {
		if coefs[i] == 0 {
			out.Cons = append(out.Cons, c)
		}
	}
	for i, lo := range s.Cons {
		for j, up := range s.Cons {
			if a, b := coefs[i], -coefs[j]; a > 0 && b > 0 {
				// b*(a*v + rl) + a*(-b*v + ru) = b*rl + a*ru: v cancels.
				out.Cons = append(out.Cons, Constraint{combine(b, lo.E, "", a, up.E)}.normalize())
			}
		}
	}
	return out.simplify()
}

// Project eliminates every variable not in keep, projecting the polyhedron
// onto the kept dimensions.
func (s *System) Project(keep map[string]bool) *System {
	out := s.Clone()
	for _, v := range s.Vars() {
		if !keep[v] {
			out = out.Eliminate(v)
		}
	}
	return out
}

// EliminateVars eliminates each named variable in turn.
func (s *System) EliminateVars(vars ...string) *System {
	out := s
	for _, v := range vars {
		out = out.Eliminate(v)
	}
	return out
}

// IsEmpty reports whether the system has no rational solutions (a sound,
// conservative test for integer emptiness: true means definitely no integer
// points; false means there may be some).
func (s *System) IsEmpty() bool {
	if s == nil {
		return true
	}
	if e := s.empt.Load(); e != emptUnknown {
		return e == emptEmpty
	}
	empty := s.isEmptySlow()
	if empty {
		s.empt.Store(emptEmpty)
	} else {
		s.empt.Store(emptNonEmpty)
	}
	return empty
}

func (s *System) isEmptySlow() bool {
	cur := s.Clone().simplify()
	for _, v := range cur.Vars() {
		cur = cur.Eliminate(v)
		if cur.hasContradiction() {
			return true
		}
	}
	return cur.hasContradiction()
}

func (s *System) hasContradiction() bool {
	for _, c := range s.Cons {
		if c.E.IsConst() && c.E.Const < 0 {
			return true
		}
	}
	return false
}

// simplify drops trivially-true and duplicate constraints from s in place —
// s must be private to the caller — and reduces s to the single constraint
// -1 >= 0 if a constant contradiction is present. Duplicates are found by
// comparing terms, behind a scan of one integer fingerprint per kept
// constraint.
func (s *System) simplify() *System {
	var buf [32]uint64
	fps, kept := buf[:0], s.Cons[:0]
next:
	for _, c := range s.Cons {
		if c.E.IsConst() {
			if c.E.Const < 0 {
				return &System{Cons: []Constraint{{NewExpr(-1)}}}
			}
			continue
		}
		fp := uint64(c.E.Const)
		for _, t := range c.E.terms {
			fp = fp*31 + uint64(t.c)
			for i := 0; i < len(t.v); i++ {
				fp = fp*31 + uint64(t.v[i])
			}
		}
		for k, f := range fps {
			if f == fp && kept[k].E.Equal(c.E) {
				continue next
			}
		}
		fps, kept = append(fps, fp), append(kept, c)
	}
	s.Cons = kept
	return s
}

// Implies reports whether every rational point of s satisfies c, tested by
// checking that s ∧ ¬c (with the integer gap e <= -1) is empty.
func (s *System) Implies(c Constraint) bool {
	// Fast path: some constraint of s dominates c syntactically — identical
	// coefficients with an equal-or-tighter constant (a + x >= 0 with a <= b
	// implies b + x >= 0). This catches the overwhelmingly common case of
	// duplicated constraints without running an elimination.
	for _, sc := range s.Cons {
		if sc.E.Const <= c.E.Const && sameCoefs(sc.E, c.E) {
			return true
		}
	}
	// ¬(e >= 0) over integers is e <= -1, i.e. -e - 1 >= 0.
	neg := &System{Cons: make([]Constraint, len(s.Cons), len(s.Cons)+1)}
	copy(neg.Cons, s.Cons)
	return neg.AddGE(c.E.Scale(-1).AddConst(-1)).IsEmpty()
}

// ContainedIn reports whether s ⊆ o (conservatively: true is definite).
func (s *System) ContainedIn(o *System) bool {
	if s.IsEmpty() {
		return true
	}
	for _, c := range o.Cons {
		if !s.Implies(c) {
			return false
		}
	}
	return true
}

// String renders the system deterministically.
func (s *System) String() string {
	if len(s.Cons) == 0 {
		return "{true}"
	}
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
