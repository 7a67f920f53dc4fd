package summary

import "suifx/internal/ir"

// The reduction classifiers as they compared expressions before
// ir.SameExpr: by printed form. TestSameExprMatchesPrinted holds the two
// comparisons to one answer on every statement of its inputs.

func PrintedClassifyUpdate(st *ir.Assign) (string, bool) {
	self := st.Lhs.String()
	sym := st.Lhs.Symbol()
	switch rhs := st.Rhs.(type) {
	case *ir.Bin:
		switch rhs.Op {
		case ir.OpAdd, ir.OpSub:
			terms, ok := addTerms(rhs)
			if !ok {
				return "", false
			}
			selfCount := 0
			for _, tm := range terms {
				if tm.pos && tm.e.String() == self {
					selfCount++
				} else if referencesSym(tm.e, sym) {
					return "", false
				}
			}
			if selfCount == 1 {
				return RedAdd, true
			}
		case ir.OpMul:
			l, r := rhs.L, rhs.R
			if l.String() == self && !referencesSym(r, sym) {
				return RedMul, true
			}
			if r.String() == self && !referencesSym(l, sym) {
				return RedMul, true
			}
		}
	case *ir.Intrinsic:
		if rhs.Name == "MIN" || rhs.Name == "MAX" {
			selfCount := 0
			for _, a := range rhs.Args {
				if a.String() == self {
					selfCount++
				} else if referencesSym(a, sym) {
					return "", false
				}
			}
			if selfCount == 1 {
				if rhs.Name == "MIN" {
					return RedMin, true
				}
				return RedMax, true
			}
		}
	}
	return "", false
}

func PrintedClassifyMinMaxIf(st *ir.If) (op string, upd *ir.Assign) {
	if len(st.Then) != 1 || len(st.Else) != 0 {
		return "", nil
	}
	asg, ok := st.Then[0].(*ir.Assign)
	if !ok {
		return "", nil
	}
	cond, ok := st.Cond.(*ir.Bin)
	if !ok || !cond.Op.IsComparison() || cond.Op == ir.OpEQ || cond.Op == ir.OpNE {
		return "", nil
	}
	lhsStr := asg.Lhs.String()
	rhsStr := asg.Rhs.String()
	l, r := cond.L.String(), cond.R.String()
	switch {
	case r == lhsStr && l == rhsStr:
		if cond.Op == ir.OpLT || cond.Op == ir.OpLE {
			return RedMin, asg
		}
		return RedMax, asg
	case l == lhsStr && r == rhsStr:
		if cond.Op == ir.OpGT || cond.Op == ir.OpGE {
			return RedMin, asg
		}
		return RedMax, asg
	}
	return "", nil
}
