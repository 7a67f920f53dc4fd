package lin

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// sameAsReference fails the test unless IsEmpty, Implies and EliminateVars
// answer on s exactly what the reference pass (reffm_test.go) answers:
// the same emptiness, the same implications of each probe, and for every
// order of every subset of vars the same constraints in the same order.
func sameAsReference(t *testing.T, what string, s *System, probes []Constraint, vars []string) {
	t.Helper()
	fresh := &System{Cons: s.Cons} // no memo: IsEmpty runs the pass
	if got, want := fresh.IsEmpty(), refIsEmpty(s); got != want {
		t.Fatalf("%s: IsEmpty = %v, reference %v on %s", what, got, want, render(s))
	}
	for _, c := range probes {
		if got, want := s.Implies(c), refImplies(s, c); got != want {
			t.Fatalf("%s: Implies(%s) = %v, reference %v on %s", what, c, got, want, render(s))
		}
	}
	for _, vs := range orders(vars) {
		got, want := s.EliminateVars(vs...), refEliminateVars(s, vs...)
		if render(got) != render(want) {
			t.Fatalf("%s: EliminateVars(%v) of %s\n got %s\nwant %s", what, vs, render(s), render(got), render(want))
		}
		checkSystemRep(t, what+": EliminateVars", got)
	}
}

// render lists the constraints of s in their order, unlike String, which
// sorts them.
func render(s *System) string {
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// orders returns every ordering of every non-empty subset of vars.
func orders(vars []string) [][]string {
	var out [][]string
	var walk func(prefix []string, rest []string)
	walk = func(prefix, rest []string) {
		for i, v := range rest {
			next := append(append([]string(nil), prefix...), v)
			out = append(out, next)
			others := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			walk(next, others)
		}
	}
	walk(nil, vars)
	return out
}

// arbitrarySystem builds a system over i, j, k that may well be empty:
// coefficients in [-4, 4] (so common divisors for normalize to take out),
// constants, repeated constraints and constant-only ones included.
func arbitrarySystem(r *rand.Rand) *System {
	s := NewSystem()
	for n := 1 + r.Intn(7); n > 0; n-- {
		if len(s.Cons) > 0 && r.Intn(6) == 0 {
			s.Cons = append(s.Cons, s.Cons[r.Intn(len(s.Cons))])
			continue
		}
		e := NewExpr(r.Int63n(13) - 6)
		for _, v := range []string{"i", "j", "k"} {
			if r.Intn(3) > 0 {
				e = e.Add(Term(v, r.Int63n(9)-4))
			}
		}
		s.AddGE(e)
	}
	return s
}

// TestQuickMatchesReferenceFM checks the scratch pass against the reference
// on arbitrary systems, empty ones included: emptiness, implication of
// probes built from the system's own constraints, and every elimination
// order.
func TestQuickMatchesReferenceFM(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := arbitrarySystem(r)
		var probes []Constraint
		for _, c := range s.Cons {
			probes = append(probes, Constraint{c.E.AddConst(r.Int63n(5) - 2)}, Constraint{c.E.Scale(-1)})
		}
		probes = append(probes, Constraint{Term("i", 2).Sub(Var("k")).AddConst(r.Int63n(5) - 2)})
		sameAsReference(t, fmt.Sprintf("seed %d", seed), s, probes, []string{"i", "j", "k"})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchNeverEscapes guards the rule the pooled scratch storage rests
// on: nothing built in it outlives the call. A hundred elimination results
// are kept while eight goroutines run further tests and eliminations through
// the same pool; had a result kept a term slice of the arena, or a
// constraint slice of a buffer, the later calls would overwrite it.
func TestScratchNeverEscapes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	type kept struct {
		sys  *System
		text string
	}
	var results []kept
	for len(results) < 100 {
		s := arbitrarySystem(r)
		res := s.EliminateVars([]string{"i", "j", "k"}[:1+r.Intn(2)]...)
		results = append(results, kept{res, render(res)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < 300; n++ {
				s := arbitrarySystem(r)
				(&System{Cons: s.Cons}).IsEmpty()
				s.Implies(Constraint{Var("j").Sub(Var("i"))})
				s.EliminateVars("k", "i").IsEmpty()
			}
		}(int64(g))
	}
	wg.Wait()
	for i, k := range results {
		if got := render(k.sys); got != k.text {
			t.Fatalf("result %d changed after later calls: %s, was %s", i, got, k.text)
		}
	}
}

// TestEmptinessAllocations pins what the pooled scratch storage buys: an
// emptiness test allocates nothing, an implication that misses the syntactic
// fast path at most what its one built constraint needs, and an elimination
// only its result — the system, its constraint slice and one slab for the
// terms it built. AllocsPerRun's average rounds down, so the scratch the pool
// makes after dropping one (a quarter of those put back, under the race
// detector) stays below the limits; it costs one allocation.
func TestEmptinessAllocations(t *testing.T) {
	// 1 <= i <= n, i <= j <= n, 2j <= 3n + 1: three variables, and a
	// combination with a common divisor for normalize.
	s := NewSystem().
		AddRange("i", NewExpr(1), Var("n")).
		AddRange("j", Var("i"), Var("n")).
		AddGE(Term("n", 3).Sub(Term("j", 2)).AddConst(1))
	jPositive := Constraint{Var("j").AddConst(-1)} // no constraint of s has j alone
	if s.IsEmpty() || !s.Implies(jPositive) {
		t.Fatalf("%s: empty %v, implies %s %v", s, s.IsEmpty(), jPositive, s.Implies(jPositive))
	}
	for _, op := range []struct {
		what  string
		limit float64
		run   func()
	}{
		{"IsEmpty on an unmemoized system", 0, func() {
			s.empt.Store(emptUnknown)
			s.IsEmpty()
		}},
		{"Implies past the fast path", 2, func() { s.Implies(jPositive) }},
		{"EliminateVars of two variables", 3, func() { s.EliminateVars("i", "j") }},
	} {
		if got := testing.AllocsPerRun(100, op.run); got > op.limit {
			t.Errorf("%s: %v allocations, want at most %v", op.what, got, op.limit)
		}
	}
}
