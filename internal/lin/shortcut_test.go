package lin

import (
	"math/rand"
	"slices"
	"testing"
)

// refFold is the normalising fold the section operations run, written out
// with nothing skipped: the polyhedra of polys are added in order to an empty
// union, an empty one or one contained in a kept one is dropped, and a new
// one drops the kept ones it contains.
func refFold(polys []*System) []*System {
	var out []*System
	for _, p := range polys {
		if p.IsEmpty() || slices.ContainsFunc(out, p.ContainedIn) {
			continue
		}
		var kept []*System
		for _, q := range out {
			if !q.ContainedIn(p) {
				kept = append(kept, q)
			}
		}
		out = append(kept, p)
	}
	return out
}

// checkEmptyOperand checks ∅ ∪ x, with an exact and with an inexact ∅, and
// x − ∅ against the reference fold of x: the same polyhedra in the same
// order, the same Exact flag and the same rendering.
func checkEmptyOperand(t *testing.T, what string, x *Section) {
	t.Helper()
	folded := refFold(x.Polys)
	inexactEmpty := &Section{NDim: x.NDim}
	for _, c := range []struct {
		op    string
		got   *Section
		exact bool
	}{
		{"∅ ∪ x", EmptySection(x.NDim).Union(x), x.Exact},
		{"~∅ ∪ x", inexactEmpty.Union(x), false},
		{"x − ∅", x.Subtract(EmptySection(x.NDim)), len(folded) == 0},
	} {
		want := &Section{NDim: x.NDim, Polys: folded, Exact: c.exact}
		if !slices.Equal(c.got.Polys, folded) || c.got.Exact != c.exact || c.got.NDim != x.NDim || c.got.String() != want.String() {
			t.Fatalf("%s: %s with x = %s gives %s (exact %v, %d polyhedra), the reference fold %s (exact %v, %d polyhedra)",
				what, c.op, x, c.got, c.got.Exact, len(c.got.Polys), want, c.exact, len(folded))
		}
	}
}

// TestEmptyOperandMatchesFold checks ∅ ∪ x and x − ∅ against the reference
// fold over FuzzSectionOps's generator: for the generated sections (never
// normalised) and for what every section operation makes of them (normalised
// by the operation), so that an operation that skips the fold for an operand
// it knows to be normalised answers as the fold does.
func TestEmptyOperandMatchesFold(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		data := make([]byte, 48)
		r.Read(data)
		next := byteReader(data)
		a, b := byteSection(next), byteSection(next)
		e := EmptySection(2)
		xs := []*Section{
			a, b, a.Union(b), b.Union(a), a.Intersect(b), a.Subtract(b), a.Project("n"),
			e.Union(a), a.Subtract(e), e.Union(a).Union(b), e.Union(a.Subtract(e)), a.Union(b).Subtract(e),
		}
		for _, x := range xs {
			checkEmptyOperand(t, "generated", x)
		}
	}
}

// TestOnlyFoldsMarkNormalised checks where the normalised mark may come
// from: sections built by NewSection, WholeSection or a struct literal never
// carry it, and neither do the results of Substitute and Rename, which map
// polyhedra one to one without folding — even of a normalised operand. The
// one exception is an empty operand, which those two hand back as it is.
func TestOnlyFoldsMarkNormalised(t *testing.T) {
	if NewSection(2, NewSystem()).norm || WholeSection(2).norm {
		t.Fatal("NewSection or WholeSection marked its section normalised")
	}
	for n := 0; n < 10; n++ {
		if !EmptySection(n).norm {
			t.Fatalf("the empty %d-dimensional section is not marked normalised", n)
		}
	}
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 500; iter++ {
		data := make([]byte, 48)
		r.Read(data)
		next := byteReader(data)
		a, b := byteSection(next), byteSection(next)
		if a.norm || b.norm {
			t.Fatal("a struct literal carries the normalised mark")
		}
		for _, x := range []*Section{a, a.Union(b), a.Intersect(b), a.Subtract(b), a.Project("n"), EmptySection(2).Union(b)} {
			if len(x.Polys) == 0 {
				continue
			}
			for _, y := range []*Section{x.Substitute("n", Var(DimVar(1)).AddConst(1)), x.Rename("n", "m"), x.Rename(DimVar(0), DimVar(0))} {
				if y.norm {
					t.Fatalf("Substitute or Rename of %s marked its result normalised", x)
				}
			}
		}
	}
}
