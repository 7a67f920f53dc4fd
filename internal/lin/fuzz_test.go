package lin

import (
	"testing"
)

// FuzzLinSystem drives the linear-system layer with an arbitrary byte
// program (each byte triple is one operation: add constraint, intersect,
// substitute, eliminate, ...) while maintaining a witness point that every
// added constraint is shifted to satisfy. Invariants checked on every step:
// the witness stays inside the system (so IsEmpty must be false), and
// elimination/projection remain sound for the witness, every expression
// keeps the representation invariant (names strictly increasing, no zero
// coefficient) and renders the same through String and through Vars/CoefOf —
// plus, implicitly, that no input sequence panics the solver.
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
		}
	})
}
