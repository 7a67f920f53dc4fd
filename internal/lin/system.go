package lin

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Constraint is the inequality Expr >= 0.
type Constraint struct {
	E Expr
}

// String renders the constraint, e.g. "i - 1 >= 0".
func (c Constraint) String() string { return c.E.String() + " >= 0" }

// normalize divides c by the GCD g of its coefficients, tightening the
// constant toward the feasible side (integer reasoning: a*x >= -b with gcd g
// on a implies g*(x') >= -b, i.e. x' >= ceil(-b/g)). The divided terms are
// appended to ts, and ts comes back extended; when g <= 1, c comes back as it
// is and ts as it was. ts may end exactly where c's own terms begin: each term
// is read before its slot is written, so that divides c in place.
func (c Constraint) normalize(ts []term) ([]term, Constraint) {
	var g int64
	for _, t := range c.E.terms {
		g = gcd64(g, t.c)
	}
	if g <= 1 {
		return ts, c
	}
	ts = slices.Grow(ts, len(c.E.terms))
	start := len(ts)
	for _, t := range c.E.terms {
		ts = append(ts, term{t.v, t.c / g})
	}
	// e >= 0  ==  sum + Const >= 0  ==  sum >= -Const; divide by g and
	// round the bound up: sum/g >= ceil(-Const/g), so Const' = floor(Const/g).
	return ts, Constraint{Expr{ts[start:], floorDiv(c.E.Const, g)}}
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
	_, c := Constraint{e}.normalize(nil)
	s.Cons = append(s.Cons, c)
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
	return (&System{Cons: make([]Constraint, 0, len(s.Cons)+len(o.Cons))}).Conjoin(s).Conjoin(o)
}

// Conjoin adds the constraints of o to s, as they are and after s's own, and
// returns s: the in-place Intersect, for the function still building s.
func (s *System) Conjoin(o *System) *System {
	s.Cons = append(s.Cons, o.Cons...)
	s.empt.Store(emptUnknown)
	return s
}

// Substitute replaces variable v by the affine expression repl everywhere.
func (s *System) Substitute(v string, repl Expr) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons))}
	for _, c := range s.Cons {
		_, c = Constraint{c.E.Substitute(v, repl)}.normalize(nil)
		out.Cons = append(out.Cons, c)
	}
	return out
}

// Rename renames variable old to new everywhere.
func (s *System) Rename(old, new string) *System {
	return (&System{Cons: make([]Constraint, 0, len(s.Cons))}).ConjoinRenamed(s, old, new)
}

// ConjoinRenamed adds the constraints of o, with old renamed to new, to s
// and returns s: Conjoin(o.Rename(old, new)) without the renamed copy.
func (s *System) ConjoinRenamed(o *System, old, new string) *System {
	for _, c := range o.Cons {
		s.Cons = append(s.Cons, Constraint{c.E.Rename(old, new)})
	}
	s.empt.Store(emptUnknown)
	return s
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
func (s *System) Eliminate(v string) *System { return s.EliminateVars(v) }

// EliminateVars eliminates each named variable in turn; with no variables,
// or no constraints to eliminate them from, it returns s itself. Each step
// keeps the constraints free of the variable, in order, then adds one
// combination per lower × upper bound pair, and drops
// trivially true and duplicate constraints (a constant contradiction reduces
// the system to -1 >= 0). The steps run in scratch storage; the result is
// copied out once, and the constraints it carries over from s share their
// Exprs with s.
func (s *System) EliminateVars(vars ...string) *System {
	if len(vars) == 0 || len(s.Cons) == 0 {
		return s
	}
	sc := newScratch()
	defer fmPool.Put(sc)
	sc.eliminate(s.Cons, nil, vars[0])
	for _, v := range vars[1:] {
		sc.eliminate(sc.cons[sc.cur], sc.fresh[sc.cur], v)
	}
	return sc.system()
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
	sc := newScratch()
	defer fmPool.Put(sc)
	sc.load(s.Cons)
	empty := sc.empty()
	if empty {
		s.empt.Store(emptEmpty)
	} else {
		s.empt.Store(emptNonEmpty)
	}
	return empty
}

// Implies reports whether every rational point of s satisfies c, tested by
// checking that s ∧ ¬c (with the integer gap e <= -1) is empty.
func (s *System) Implies(c Constraint) bool { return implies(s.Cons, nil, c) }

// IntersectImplies reports whether s ∧ o implies c: what
// s.Intersect(o).Implies(c) answers, without building the intersection.
func (s *System) IntersectImplies(o *System, c Constraint) bool { return implies(s.Cons, o.Cons, c) }

// implies reports whether the conjunction of the constraints s and then o
// implies c.
func implies(s, o []Constraint, c Constraint) bool {
	// Fast path: some constraint dominates c syntactically — identical
	// coefficients with an equal-or-tighter constant (a + x >= 0 with a <= b
	// implies b + x >= 0). This catches the overwhelmingly common case of
	// duplicated constraints without running an elimination.
	for _, cons := range [2][]Constraint{s, o} {
		for _, have := range cons {
			if have.E.Const <= c.E.Const && sameCoefs(have.E, c.E) {
				return true
			}
		}
	}
	// ¬(e >= 0) over integers is e <= -1, i.e. -e - 1 >= 0: the conjunction
	// implies c when it is empty with that constraint appended.
	sc := newScratch()
	defer fmPool.Put(sc)
	sc.load(s)
	sc.load(o)
	mark := len(sc.arena)
	var neg Expr
	sc.arena, neg = combine(sc.arena, -1, c.E, "", 0, Expr{})
	_, nc := Constraint{neg.AddConst(-1)}.normalize(sc.arena[:mark]) // in place
	sc.add(nc, true)
	return sc.empty()
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

// fmScratch is the working storage of one Fourier–Motzkin call tree (IsEmpty,
// Implies, EliminateVars), reused through fmPool so that an emptiness test
// allocates nothing and an elimination only its result. It holds two
// constraint buffers used in turn as the input and the output of an
// elimination step, each with a parallel fresh flag marking the constraints
// built in this call; the term arena those built constraints live in; and
// the coefficient, fingerprint and variable buffers of a step. Nothing in it
// escapes the call: an emptiness test returns a bool, and an elimination
// copies its result out (system). The arena only grows during a call, so a
// built constraint's terms stay valid while later steps append; when append
// moves the arena, the old backing array stays alive for the constraints
// that point into it, which is why the fresh flags, not address ranges, say
// what must be copied out.
type fmScratch struct {
	cons  [2][]Constraint
	fresh [2][]bool
	cur   int  // the buffer holding the current system
	dead  bool // the current system is the contradiction -1 >= 0
	arena []term
	coefs []int64
	fps   []uint64 // fingerprints of the current system's constraints
	vars  []string

	// inline is where the buffers start, so that a scratch the pool had to
	// make (it drops values at a collection, and a quarter of those put back
	// under the race detector) costs one allocation, not one per buffer.
	inline struct {
		cons  [2][32]Constraint
		fresh [2][32]bool
		arena [256]term
		coefs [32]int64
		fps   [32]uint64
		vars  [8]string
	}
}

var fmPool = sync.Pool{New: func() any {
	sc := new(fmScratch)
	in := &sc.inline
	sc.cons = [2][]Constraint{in.cons[0][:0], in.cons[1][:0]}
	sc.fresh = [2][]bool{in.fresh[0][:0], in.fresh[1][:0]}
	sc.arena, sc.coefs, sc.fps, sc.vars = in.arena[:0], in.coefs[:0], in.fps[:0], in.vars[:0]
	return sc
}}

// newScratch takes a scratch from the pool, holding the empty system.
func newScratch() *fmScratch {
	sc := fmPool.Get().(*fmScratch)
	sc.cur, sc.dead = 0, false
	sc.cons[0], sc.fresh[0] = sc.cons[0][:0], sc.fresh[0][:0]
	sc.arena, sc.fps = sc.arena[:0], sc.fps[:0]
	return sc
}

// load adds the caller's constraints cons to the current system.
func (sc *fmScratch) load(cons []Constraint) {
	for _, c := range cons {
		if sc.add(c, false); sc.dead {
			return
		}
	}
}

// add appends c to the current system unless it is trivially true or
// duplicates a constraint already there, and reports whether it did. A
// constant contradiction reduces the system to the single constraint -1 >= 0
// for good. This is the one simplification of Fourier–Motzkin: applied to
// every constraint as a step produces it, it keeps what dropping trivial and
// duplicate constraints from the finished step would keep, in the same
// order. Duplicates are found by comparing terms, behind a scan of one
// integer fingerprint per kept constraint.
func (sc *fmScratch) add(c Constraint, fresh bool) bool {
	if sc.dead {
		return false
	}
	if c.E.IsConst() {
		if c.E.Const < 0 {
			sc.dead = true
			sc.cons[sc.cur] = append(sc.cons[sc.cur][:0], Constraint{NewExpr(-1)})
			sc.fresh[sc.cur] = append(sc.fresh[sc.cur][:0], false)
		}
		return false
	}
	fp := uint64(c.E.Const)
	for _, t := range c.E.terms {
		fp = fp*31 + uint64(t.c)
		for i := 0; i < len(t.v); i++ {
			fp = fp*31 + uint64(t.v[i])
		}
	}
	kept := sc.cons[sc.cur]
	for k, f := range sc.fps {
		if f == fp && kept[k].E.Equal(c.E) {
			return false
		}
	}
	sc.fps = append(sc.fps, fp)
	sc.cons[sc.cur] = append(kept, c)
	sc.fresh[sc.cur] = append(sc.fresh[sc.cur], fresh)
	return true
}

// eliminate removes v from the system in — the caller's constraints when
// inFresh is nil, else the current buffer and its flags — by one
// Fourier–Motzkin step into the other buffer, which becomes the current
// system. co*v + r >= 0 is a lower bound on v when co > 0 (v >= -r/co), an
// upper bound when co < 0 (v <= r/(-co)); the step keeps the constraints free
// of v, then adds one combination per lower × upper pair.
func (sc *fmScratch) eliminate(in []Constraint, inFresh []bool, v string) {
	if sc.dead {
		return
	}
	sc.cur = 1 - sc.cur
	sc.cons[sc.cur], sc.fresh[sc.cur], sc.fps = sc.cons[sc.cur][:0], sc.fresh[sc.cur][:0], sc.fps[:0]
	coefs := sc.coefs[:0]
	for _, c := range in {
		coefs = append(coefs, c.E.CoefOf(v))
	}
	sc.coefs = coefs
	for i, c := range in {
		if coefs[i] == 0 {
			if sc.add(c, inFresh != nil && inFresh[i]); sc.dead {
				return
			}
		}
	}
	for i, lo := range in {
		if coefs[i] <= 0 {
			continue
		}
		for j, up := range in {
			if a, b := coefs[i], -coefs[j]; b > 0 {
				// b*(a*v + rl) + a*(-b*v + ru) = b*rl + a*ru: v cancels.
				mark := len(sc.arena)
				var e Expr
				sc.arena, e = combine(sc.arena, b, lo.E, "", a, up.E)
				_, c := Constraint{e}.normalize(sc.arena[:mark]) // in place
				if !sc.add(c, true) {
					sc.arena = sc.arena[:mark]
					if sc.dead {
						return
					}
				}
			}
		}
	}
}

// empty reports whether the current system has no rational solution: it
// eliminates the system's variables in sorted order, stopping at the first
// step that leaves a contradiction.
func (sc *fmScratch) empty() bool {
	vars := sc.vars[:0]
	for _, c := range sc.cons[sc.cur] {
		for _, t := range c.E.terms {
			if !slices.Contains(vars, t.v) {
				vars = append(vars, t.v)
			}
		}
	}
	slices.Sort(vars)
	sc.vars = vars
	for _, v := range vars {
		if sc.dead {
			break
		}
		sc.eliminate(sc.cons[sc.cur], sc.fresh[sc.cur], v)
	}
	return sc.dead
}

// system copies the current system out of the scratch: one *System, one
// constraint slice and one slab for the terms of the constraints built in
// this call. Constraints carried over from the caller keep their Exprs.
func (sc *fmScratch) system() *System {
	cons, fresh := sc.cons[sc.cur], sc.fresh[sc.cur]
	n := 0
	for i, c := range cons {
		if fresh[i] {
			n += len(c.E.terms)
		}
	}
	var slab []term
	if n > 0 {
		slab = make([]term, 0, n)
	}
	out := &System{Cons: make([]Constraint, len(cons))}
	for i, c := range cons {
		if fresh[i] {
			start := len(slab)
			slab = append(slab, c.E.terms...)
			c.E.terms = slab[start:len(slab):len(slab)]
		}
		out.Cons[i] = c
	}
	return out
}
