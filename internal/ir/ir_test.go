package ir

import "testing"

func sym(name string, dims ...Dim) *Symbol {
	return &Symbol{Name: name, Dims: dims}
}

func TestSymbolBasics(t *testing.T) {
	s := sym("A", Dim{1, 10}, Dim{0, 9})
	if !s.IsArray() || s.NElems() != 100 {
		t.Fatalf("A: array=%v elems=%d", s.IsArray(), s.NElems())
	}
	sc := sym("X")
	if sc.IsArray() || sc.NElems() != 1 {
		t.Fatal("scalar misclassified")
	}
	if (Dim{0, 9}).Size() != 10 {
		t.Fatal("dim size")
	}
}

func buildProg() *Program {
	// MAIN calls F; F calls G.
	g := &Proc{Name: "G", Syms: map[string]*Symbol{}}
	f := &Proc{Name: "F", Syms: map[string]*Symbol{},
		Body: []Stmt{&Call{Name: "G"}}}
	i := sym("I")
	loop := &DoLoop{Index: i, Lo: IntConst(1), Hi: IntConst(10), Label: "10",
		Body: []Stmt{&Call{Name: "F"}}}
	m := &Proc{Name: "MAIN", IsMain: true, Syms: map[string]*Symbol{"I": i},
		Body: []Stmt{loop}}
	p := &Program{Name: "t", Procs: []*Proc{g, f, m},
		ByName: map[string]*Proc{"G": g, "F": f, "MAIN": m}}
	if !p.Link([]CallSite{{Caller: f, Call: f.Body[0].(*Call)}, {Caller: m, Call: loop.Body[0].(*Call)}}) {
		panic("acyclic graph rejected")
	}
	return p
}

func TestCallGraphAndOrders(t *testing.T) {
	p := buildProg()
	cg := p.CallGraph()
	if len(cg["MAIN"]) != 1 || cg["MAIN"][0] != "F" {
		t.Fatalf("call graph: %v", cg)
	}
	up := p.BottomUpOrder()
	pos := map[string]int{}
	for i, pr := range up {
		pos[pr.Name] = i
	}
	if !(pos["G"] < pos["F"] && pos["F"] < pos["MAIN"]) {
		t.Fatalf("bottom-up order wrong: %v", pos)
	}
	down := p.TopDownOrder()
	if down[0].Name != "MAIN" {
		t.Fatalf("top-down should start at MAIN: %v", down[0].Name)
	}
}

func TestRecursionDetected(t *testing.T) {
	a := &Proc{Name: "A", Syms: map[string]*Symbol{}, Body: []Stmt{&Call{Name: "B"}}}
	b := &Proc{Name: "B", Syms: map[string]*Symbol{}, Body: []Stmt{&Call{Name: "A"}}}
	p := &Program{Procs: []*Proc{a, b}, ByName: map[string]*Proc{"A": a, "B": b}}
	sites := []CallSite{{Caller: a, Call: a.Body[0].(*Call)}, {Caller: b, Call: b.Body[0].(*Call)}}
	if p.Link(sites) {
		t.Fatal("recursive call graph not detected")
	}
}

func TestWalkersAndQueries(t *testing.T) {
	p := buildProg()
	m := p.Main()
	if m == nil || m.Name != "MAIN" {
		t.Fatal("Main lookup")
	}
	if loops := m.Loops(); len(loops) != 1 || loops[0].ID("MAIN") != "MAIN/10" {
		t.Fatalf("loops: %v", loops)
	}
	if reach := p.Reachable(m.Body); len(reach) != 2 || reach[0].Name != "F" || reach[1].Name != "G" {
		t.Fatalf("reachable: %v", reach)
	}
	if HasIO(m.Body) {
		t.Fatal("no IO present")
	}
	sites := p.Sites("G")
	if len(sites) != 1 || sites[0].Caller.Name != "F" {
		t.Fatalf("call sites: %v", sites)
	}
}

func TestExprStrings(t *testing.T) {
	a := sym("A", Dim{1, 5})
	e := &Bin{Op: OpAdd, L: &ArrayRef{Sym: a, Idx: []Expr{IntConst(3)}}, R: &Const{Val: 1.5}}
	if got := e.String(); got != "(A(3)+1.5)" {
		t.Fatalf("String = %q", got)
	}
	cmp := &Bin{Op: OpLE, L: &VarRef{Sym: sym("X")}, R: IntConst(4)}
	if got := cmp.String(); got != "(X .LE. 4)" {
		t.Fatalf("String = %q", got)
	}
	in := &Intrinsic{Name: "MIN", Args: []Expr{IntConst(1), IntConst(2)}}
	if got := in.String(); got != "MIN(1,2)" {
		t.Fatalf("String = %q", got)
	}
	if OpLE.String() != ".LE." || !OpLE.IsComparison() || OpAdd.IsComparison() {
		t.Fatal("op metadata")
	}
}

func TestLineCount(t *testing.T) {
	p := &Program{Source: []string{"      X = 1", "C comment", "", "* star", "      Y = 2"}}
	if got := p.LineCount(true); got != 3 {
		t.Fatalf("code lines = %d, want 3 (classic 'C comment' col-1 is counted: %q)", got, p.Source)
	}
	if p.LineCount(false) != 5 {
		t.Fatal("raw line count")
	}
	if p.SourceLine(1) != "      X = 1" || p.SourceLine(99) != "" {
		t.Fatal("SourceLine")
	}
}

func TestSameExpr(t *testing.T) {
	a, a2, b := sym("A", Dim{1, 10}), sym("A", Dim{1, 10}), sym("B")
	ref := func(s *Symbol, idx ...Expr) Expr { return &ArrayRef{Sym: s, Idx: idx} }
	sum := func(l, r Expr) Expr { return &Bin{Op: OpAdd, L: l, R: r} }
	for _, c := range []struct {
		x, y Expr
		same bool
	}{
		{ref(a, IntConst(1)), ref(a, &Const{Val: 1}), true},
		{sum(&VarRef{Sym: b}, IntConst(2)), sum(&VarRef{Sym: b}, IntConst(2)), true},
		{ref(a, IntConst(1)), ref(a2, IntConst(1)), false}, // one name, two symbols
		{sum(&VarRef{Sym: b}, IntConst(2)), &Bin{Op: OpMul, L: &VarRef{Sym: b}, R: IntConst(2)}, false},
		{&Un{Op: "-", X: IntConst(1)}, IntConst(-1), false},
		{&Intrinsic{Name: "MIN", Args: []Expr{&VarRef{Sym: b}}}, &Intrinsic{Name: "MAX", Args: []Expr{&VarRef{Sym: b}}}, false},
	} {
		if got := SameExpr(c.x, c.y); got != c.same {
			t.Errorf("SameExpr(%s, %s) = %v, want %v", c.x, c.y, got, c.same)
		}
	}
}
