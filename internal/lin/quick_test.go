package lin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSystem builds a random small system over variables i, j with bounded
// coefficients, guaranteed to contain the point it is seeded around.
func randSystem(r *rand.Rand) (*System, map[string]int64) {
	pt := map[string]int64{"i": r.Int63n(21) - 10, "j": r.Int63n(21) - 10}
	s := NewSystem()
	for k := 0; k < 1+r.Intn(4); k++ {
		e := Term("i", r.Int63n(7)-3).Add(Term("j", r.Int63n(7)-3))
		v, _ := e.Eval(pt)
		// Shift the constant so the seed point satisfies e + c >= 0.
		slack := r.Int63n(5)
		s.AddGE(e.AddConst(-v + slack))
	}
	return s, pt
}

func TestQuickSeedPointSatisfied(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, pt := randSystem(r)
		return s.ContainsPoint(pt) && !s.IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Projection soundness: if a point is in S, its restriction to the kept
// variables is in project(S).
func TestQuickProjectionSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, pt := randSystem(r)
		p := s.Eliminate("j")
		return p.ContainsPoint(map[string]int64{"i": pt["i"]})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Intersection is contained in both operands.
func TestQuickIntersectionContained(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, pa := randSystem(r)
		b, _ := randSystem(r)
		x := a.Intersect(b)
		if x.IsEmpty() {
			return true
		}
		// Any point of the intersection must be in both; test with the seed
		// point of a when it happens to be in b.
		if b.ContainsPoint(pa) {
			return x.ContainsPoint(pa) && x.ContainedIn(a) && x.ContainedIn(b)
		}
		return x.ContainedIn(a) && x.ContainedIn(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Containment is consistent with point membership on a grid sample.
func TestQuickContainmentConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := randSystem(r)
		b, _ := randSystem(r)
		if !a.ContainedIn(b) {
			return true // nothing claimed
		}
		for i := int64(-12); i <= 12; i += 3 {
			for j := int64(-12); j <= 12; j += 3 {
				pt := map[string]int64{"i": i, "j": j}
				if a.ContainsPoint(pt) && !b.ContainsPoint(pt) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Section subtraction over-approximates: every point of a \setminus b
// (sampled) is in Subtract(a,b).
func TestQuickSubtractOverApprox(t *testing.T) {
	f := func(lo1, hi1, lo2, hi2 int8) bool {
		a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(int64(lo1)), NewExpr(int64(hi1))))
		b := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(int64(lo2)), NewExpr(int64(hi2))))
		d := a.Subtract(b)
		for x := int64(-130); x <= 130; x++ {
			inA := int64(lo1) <= x && x <= int64(hi1)
			inB := int64(lo2) <= x && x <= int64(hi2)
			if inA && !inB && !d.ContainsIndex([]int64{x}, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Union membership equals membership in either operand (for exact interval
// sections, where containment tests are precise).
func TestQuickUnionMembership(t *testing.T) {
	f := func(lo1, hi1, lo2, hi2 int8) bool {
		a := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(int64(lo1)), NewExpr(int64(hi1))))
		b := NewSection(1, NewSystem().AddRange(DimVar(0), NewExpr(int64(lo2)), NewExpr(int64(hi2))))
		u := a.Union(b)
		for x := int64(-130); x <= 130; x += 7 {
			want := (int64(lo1) <= x && x <= int64(hi1)) || (int64(lo2) <= x && x <= int64(hi2))
			if u.ContainsIndex([]int64{x}, nil) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizePreservesIntegerPoints(t *testing.T) {
	f := func(a, b, c int8) bool {
		if a == 0 && b == 0 {
			return true
		}
		e := Term("i", int64(a)).Add(Term("j", int64(b))).AddConst(int64(c))
		raw := Constraint{e}
		_, norm := raw.normalize(nil)
		for i := int64(-10); i <= 10; i += 2 {
			for j := int64(-10); j <= 10; j += 2 {
				pt := map[string]int64{"i": i, "j": j}
				rv, _ := raw.E.Eval(pt)
				nv, _ := norm.E.Eval(pt)
				if (rv >= 0) != (nv >= 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
