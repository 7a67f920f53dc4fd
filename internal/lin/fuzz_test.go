package lin

import (
	"fmt"
	"testing"
)

// FuzzLinSystem drives the linear-system layer with an arbitrary byte
// program (each byte triple is one operation: add constraint, intersect,
// substitute, eliminate, ...) while maintaining a witness point that every
// added constraint is shifted to satisfy. Invariants checked on every step:
// the witness stays inside the system (so IsEmpty must be false), and
// elimination/projection remain sound for the witness, every expression
// keeps the representation invariant (names strictly increasing, no zero
// coefficient) and renders the same through String and through Vars/CoefOf,
// and IsEmpty, Implies and EliminateVars answer exactly what the reference
// Fourier–Motzkin pass answers (reffm_test.go) — plus, implicitly, that no
// input sequence panics the solver.
func FuzzLinSystem(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 200, 30, 2, 9, 9, 0, 0, 0, 3, 1, 1, 4, 50, 5})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{2, 255, 255, 1, 128, 128, 0, 64, 64, 3, 32, 32})
	f.Add([]byte{0, 3, 8, 8, 17, 5, 5, 1, 2, 6, 9, 4, 7, 2, 3, 13, 0, 1, 4, 1, 2, 15, 6, 6})

	vars := []string{"i", "j", "k"}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSystem()
		pt := map[string]int64{"i": 3, "j": -2, "k": 7}
		check := func(what string) {
			if !s.ContainsPoint(pt) {
				t.Fatalf("%s: witness point fell out of the system %s", what, s)
			}
			if s.IsEmpty() {
				t.Fatalf("%s: system containing the witness reports empty: %s", what, s)
			}
			checkSystemRep(t, what, s)
		}
		for i := 0; i+2 < len(data) && len(s.Cons) < 12; i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			v := vars[int(a)%len(vars)]
			w := vars[int(b)%len(vars)]
			c1 := int64(a%7) - 3
			c2 := int64(b%7) - 3
			e := Term(v, c1).Add(Term(w, c2))
			switch op % 8 {
			case 0: // add a >= constraint shifted to keep the witness inside
				val, err := e.Eval(pt)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				s.AddGE(e.AddConst(-val + int64(op%3)))
				check("AddGE")
			case 1: // add an equality the witness satisfies
				val, err := e.Eval(pt)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				s.AddEq(e.AddConst(-val))
				check("AddEq")
			case 2: // intersect with self must change nothing
				s = s.Intersect(s.Clone())
				check("Intersect(self)")
			case 3: // substitution commutes with evaluation at the witness
				if v == w {
					continue
				}
				k := int64(op % 4)
				sub := s.Clone().Substitute(v, Var(w).AddConst(k))
				moved := map[string]int64{}
				for name, val := range pt {
					moved[name] = val
				}
				moved[v] = pt[w] + k
				if sub.ContainsPoint(pt) != s.ContainsPoint(moved) {
					t.Fatalf("Substitute(%s := %s + %d) changed satisfaction: %s vs %s", v, w, k, sub, s)
				}
			case 4: // eliminating a variable is sound for the witness
				proj := s.Clone().Eliminate(v)
				if !proj.ContainsPoint(pt) {
					t.Fatalf("Eliminate(%s): witness not in projection %s of %s", v, proj, s)
				}
				checkSystemRep(t, "Eliminate", proj)
			case 5: // renaming to a fresh name moves the witness along, and back is the identity
				for _, fresh := range []string{"a", "j2", "z"} { // sorts before, between, after
					ren := s.Rename(v, fresh)
					checkSystemRep(t, "Rename", ren)
					moved := map[string]int64{fresh: pt[v]}
					for name, val := range pt {
						if name != v {
							moved[name] = val
						}
					}
					if !ren.ContainsPoint(moved) {
						t.Fatalf("Rename(%s, %s): moved witness not in %s", v, fresh, ren)
					}
					if back := ren.Rename(fresh, v); back.String() != s.String() {
						t.Fatalf("Rename(%s, %s) and back: %s, want %s", v, fresh, back, s)
					}
				}
			case 6: // a positive multiple of a constraint normalizes back to it
				k := int64(op%3) + 1
				for _, c := range s.Cons {
					scaled := NewSystem().AddGE(c.E.Scale(k))
					checkSystemRep(t, "Scale", scaled)
					if !c.E.IsConst() && !scaled.Cons[0].E.Equal(c.E) {
						t.Fatalf("%d * (%s) normalized to %s", k, c.E, scaled.Cons[0].E)
					}
				}
				if !e.Scale(0).Equal(Expr{}) || !e.Scale(-1).Scale(-1).Equal(e) {
					t.Fatalf("Scale: 0*e = %s, -(-e) = %s, e = %s", e.Scale(0), e.Scale(-1).Scale(-1), e)
				}
			case 7: // subtraction is evaluation-compatible and undone by addition
				o := Term(w, c1).AddConst(int64(b))
				if len(s.Cons) > 0 {
					o = s.Cons[int(b)%len(s.Cons)].E
				}
				d := e.Sub(o)
				for _, x := range []Expr{d, d.Add(o), e.Sub(e)} {
					if err := repErr(x); err != nil {
						t.Fatalf("Sub: %v", err)
					}
				}
				ve, _ := e.Eval(pt)
				vo, _ := o.Eval(pt)
				if vd, err := d.Eval(pt); err != nil || vd != ve-vo {
					t.Fatalf("(%s) - (%s) = %s evaluates to %d at the witness, want %d", e, o, d, vd, ve-vo)
				}
				if !d.Add(o).Equal(e) || !e.Sub(e).Equal(Expr{}) {
					t.Fatalf("Sub: (%s - %s) + %s = %s; e - e = %s", e, o, o, d.Add(o), e.Sub(e))
				}
			}
			_ = s.String() // must never panic
			// Probes around e: implied, not implied, and violated by the witness.
			val, _ := e.Eval(pt)
			probes := []Constraint{{e.AddConst(-val)}, {e.AddConst(-val - 1)}, {e.Scale(-1).AddConst(val - 1)}}
			sameAsReference(t, fmt.Sprintf("step %d", i/3), s, probes, vars)
		}
	})
}

// FuzzSectionOps checks what the section operations mean, not how their
// results render: two byte-built 2-D sections (empty, inexact, unnormalised
// and n-dependent polyhedra included) are combined and every result is
// compared with its operands by point membership over a small integer box.
// Union and Intersect are exact, Subtract lies between a \ b and a, Project
// over-approximates — so an operation that hands back an operand it should
// not have fails here even on inputs no golden renders. ∅ ∪ x and x − ∅
// must answer as the reference fold does for the operands and every result,
// and operands must read the same afterwards.
func FuzzSectionOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 1, 2, 0, 0, 2, 4, 4, 2, 2, 1, 3})
	f.Add([]byte{1, 2, 0, 0, 4, 4, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 4, 4, 0})
	f.Add([]byte{0, 3, 5, 5, 0, 0, 2, 1, 5, 5, 0, 0, 2, 3, 8, 8, 2, 2, 1, 2, 0, 1, 4, 4, 3, 3, 1, 0})
	f.Add([]byte{2, 0, 1, 3, 9, 9, 9, 9, 9, 9, 3, 7, 7, 7, 7, 7, 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		next := byteReader(data)
		a, b := byteSection(next), byteSection(next)
		render := func(s *Section) string { return fmt.Sprint(s.NDim, s.Exact, s.Polys) }
		wasA, wasB := render(a), render(b)

		union, inter, diff, proj := a.Union(b), a.Intersect(b), a.Subtract(b), a.Project("n")
		if union.Exact != (a.Exact && b.Exact) || inter.Exact != (a.Exact && b.Exact) || proj.Exact != a.Exact || diff.Exact != (len(diff.Polys) == 0) {
			t.Fatalf("Exact flags: a=%v b=%v ∪=%v ∩=%v −=%v (%d polyhedra) proj=%v", a.Exact, b.Exact, union.Exact, inter.Exact, diff.Exact, len(diff.Polys), proj.Exact)
		}
		for _, n := range []int64{-1, 2} {
			env := map[string]int64{"n": n}
			for x := int64(-4); x <= 5; x++ {
				for y := int64(-4); y <= 5; y++ {
					p := []int64{x, y}
					inA, inB := a.ContainsIndex(p, env), b.ContainsIndex(p, env)
					if got := union.ContainsIndex(p, env); got != (inA || inB) {
						t.Fatalf("%v ∈ a ∪ b is %v, but ∈ a %v, ∈ b %v (n=%d)\na=%s\nb=%s\n∪=%s", p, got, inA, inB, n, a, b, union)
					}
					if got := inter.ContainsIndex(p, env); got != (inA && inB) {
						t.Fatalf("%v ∈ a ∩ b is %v, but ∈ a %v, ∈ b %v (n=%d)\na=%s\nb=%s\n∩=%s", p, got, inA, inB, n, a, b, inter)
					}
					switch inDiff := diff.ContainsIndex(p, env); {
					case inA && !inB && !inDiff:
						t.Fatalf("%v ∈ a, ∉ b, yet ∉ a − b (n=%d)\na=%s\nb=%s\n−=%s", p, n, a, b, diff)
					case inDiff && !inA:
						t.Fatalf("%v ∈ a − b but ∉ a (n=%d)\na=%s\nb=%s\n−=%s", p, n, a, b, diff)
					}
					if inA && !proj.ContainsIndex(p, nil) {
						t.Fatalf("%v ∈ a at n=%d but ∉ a projected over n\na=%s\nproj=%s", p, n, a, proj)
					}
				}
			}
		}
		for _, x := range []*Section{a, b, union, inter, diff, proj} {
			checkEmptyOperand(t, "fuzz", x)
		}
		if render(a) != wasA || render(b) != wasB {
			t.Fatalf("an operand changed: a=%s (was %s), b=%s (was %s)", render(a), wasA, render(b), wasB)
		}
	})
}

// byteReader hands out the bytes of data one at a time, then zeros.
func byteReader(data []byte) func() int64 {
	return func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
}

// byteSection builds a 2-D section from the bytes next hands out: up to
// three boxes, each optionally cut by a diagonal or by an n-dependent bound,
// exact or not. Nothing normalises it, so it may hold empty polyhedra and
// polyhedra contained in others.
func byteSection(next func() int64) *Section {
	s := &Section{NDim: 2, Exact: next()%2 == 0}
	for k := next() % 4; k > 0; k-- {
		lo0, lo1 := next()%7-3, next()%7-3
		sys := NewSystem().
			AddRange(DimVar(0), NewExpr(lo0), NewExpr(lo0+next()%4)).
			AddRange(DimVar(1), NewExpr(lo1), NewExpr(lo1+next()%4))
		switch c := next(); c % 4 {
		case 1: // $d0 >= $d1 + c
			sys.AddGE(Var(DimVar(0)).Sub(Var(DimVar(1))).AddConst(-(c/4%5 - 2)))
		case 2: // $d0 <= n + c
			sys.AddGE(Var("n").Sub(Var(DimVar(0))).AddConst(c/4%5 - 2))
		}
		s.Polys = append(s.Polys, sys)
	}
	return s
}
