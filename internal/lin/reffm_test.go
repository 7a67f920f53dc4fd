package lin

// The Fourier–Motzkin pass as it was before it ran in scratch storage:
// every step a fresh *System, every combined constraint a fresh term slice.
// It is kept, unchanged but for the ref prefix on its functions, as the
// reference the scratch pass is checked against (FuzzLinSystem,
// TestQuickMatchesReferenceFM): the elimination order decides the integer
// tightening, so the two must agree constraint by constraint, not only in
// meaning.

// refEliminate is the reference (*System).Eliminate.
func refEliminate(s *System, v string) *System {
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
				out.Cons = append(out.Cons, refNormalize(Constraint{refCombine(b, lo.E, "", a, up.E)}))
			}
		}
	}
	return refSimplify(out)
}

// refEliminateVars is the reference (*System).EliminateVars.
func refEliminateVars(s *System, vars ...string) *System {
	out := s
	for _, v := range vars {
		out = refEliminate(out, v)
	}
	return out
}

// refIsEmpty is the reference (*System).isEmptySlow.
func refIsEmpty(s *System) bool {
	cur := refSimplify(s.Clone())
	for _, v := range cur.Vars() {
		cur = refEliminate(cur, v)
		if refHasContradiction(cur) {
			return true
		}
	}
	return refHasContradiction(cur)
}

// refImplies is the reference (*System).Implies.
func refImplies(s *System, c Constraint) bool {
	for _, sc := range s.Cons {
		if sc.E.Const <= c.E.Const && sameCoefs(sc.E, c.E) {
			return true
		}
	}
	// ¬(e >= 0) over integers is e <= -1, i.e. -e - 1 >= 0.
	neg := &System{Cons: make([]Constraint, len(s.Cons), len(s.Cons)+1)}
	copy(neg.Cons, s.Cons)
	neg.Cons = append(neg.Cons, refNormalize(Constraint{refCombine(-1, c.E, "", 0, Expr{}).AddConst(-1)}))
	return refIsEmpty(neg)
}

// refHasContradiction is the reference (*System).hasContradiction.
func refHasContradiction(s *System) bool {
	for _, c := range s.Cons {
		if c.E.IsConst() && c.E.Const < 0 {
			return true
		}
	}
	return false
}

// refSimplify is the reference (*System).simplify.
func refSimplify(s *System) *System {
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

// refNormalize is the reference Constraint.normalize.
func refNormalize(c Constraint) Constraint {
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
	return Constraint{Expr{ts, floorDiv(c.E.Const, g)}}
}

// refCombine is the reference combine.
func refCombine(ka int64, a Expr, drop string, kb int64, b Expr) Expr {
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
