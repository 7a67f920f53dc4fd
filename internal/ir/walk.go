package ir

import "slices"

// WalkStmts visits every statement in the list, recursing into loop bodies
// and IF arms, in source order. Returning false from f stops descent into a
// statement's children (but not its siblings).
func WalkStmts(stmts []Stmt, f func(Stmt) bool) {
	for _, s := range stmts {
		if !f(s) {
			continue
		}
		switch st := s.(type) {
		case *DoLoop:
			WalkStmts(st.Body, f)
		case *If:
			WalkStmts(st.Then, f)
			WalkStmts(st.Else, f)
		}
	}
}

// WalkExprs visits every expression appearing in the statement (not
// recursing into nested statements), pre-order.
func WalkExprs(s Stmt, f func(Expr)) {
	switch st := s.(type) {
	case *Assign:
		walkExpr(st.Lhs, f)
		walkExpr(st.Rhs, f)
	case *DoLoop:
		walkExpr(st.Lo, f)
		walkExpr(st.Hi, f)
		if st.Step != nil {
			walkExpr(st.Step, f)
		}
	case *If:
		walkExpr(st.Cond, f)
	case *Call:
		for _, a := range st.Args {
			walkExpr(a, f)
		}
	case *IO:
		for _, a := range st.Args {
			walkExpr(a, f)
		}
	}
}

func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *ArrayRef:
		for _, i := range x.Idx {
			walkExpr(i, f)
		}
	case *Bin:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case *Un:
		walkExpr(x.X, f)
	case *Intrinsic:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	}
}

// WalkExpr exposes expression traversal for standalone expressions.
func WalkExpr(e Expr, f func(Expr)) { walkExpr(e, f) }

// Loops returns every DO loop in the procedure in source order, outermost
// first within each nest.
func (p *Proc) Loops() []*DoLoop {
	var out []*DoLoop
	WalkStmts(p.Body, func(s Stmt) bool {
		if l, ok := s.(*DoLoop); ok {
			out = append(out, l)
		}
		return true
	})
	return out
}

// OuterLoops returns only the top-level loops of the procedure.
func (p *Proc) OuterLoops() []*DoLoop {
	var out []*DoLoop
	for _, s := range p.Body {
		collectOuter(s, &out)
	}
	return out
}

func collectOuter(s Stmt, out *[]*DoLoop) {
	switch st := s.(type) {
	case *DoLoop:
		*out = append(*out, st)
	case *If:
		for _, t := range st.Then {
			collectOuter(t, out)
		}
		for _, t := range st.Else {
			collectOuter(t, out)
		}
	}
}

// ReadLines returns, ascending, the lines of the statement list (nested
// statements included) that read sym's storage: each reference to a symbol
// with sym's representative (Symbol.Canon), except the reference an
// assignment or a READ stores to, whose subscripts are still reads.
func ReadLines(stmts []Stmt, sym *Symbol) []int {
	key := sym.Canon()
	var lines []int
	WalkStmts(stmts, func(s Stmt) bool {
		var stored []Expr // the references s stores to
		switch st := s.(type) {
		case *Assign:
			stored = []Expr{st.Lhs}
		case *IO:
			if !st.Write {
				stored = st.Args
			}
		}
		WalkExprs(s, func(e Expr) {
			if r, ok := e.(Ref); ok && r.Symbol().Canon() == key && !slices.Contains(stored, e) {
				lines = append(lines, e.Position().Line)
			}
		})
		return true
	})
	slices.Sort(lines)
	return slices.Compact(lines)
}
