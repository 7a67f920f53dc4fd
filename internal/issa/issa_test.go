package issa

import (
	"fmt"
	"strings"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := minif.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(prog)
}

func TestStraightLineSSA(t *testing.T) {
	g := build(t, `
      PROGRAM main
      INTEGER a, b
      a = 1
      b = a + 2
      a = b * 3
      END
`)
	// b = a + 2 must use the first def of a; the second a def uses b's def.
	defs := g.FindUse("MAIN", "A", 5) // use in b = a + 2
	if len(defs) != 1 || defs[0].Line != 4 {
		t.Fatalf("reaching def of a at line 5 = %v", defs)
	}
	defs = g.FindUse("MAIN", "B", 6)
	if len(defs) != 1 || defs[0].Line != 5 {
		t.Fatalf("reaching def of b at line 6 = %v", defs)
	}
}

func TestIfJoinPhi(t *testing.T) {
	g := build(t, `
      PROGRAM main
      INTEGER a, c
      a = 1
      IF (a .GT. 0) THEN
        c = 2
      ELSE
        c = 3
      ENDIF
      a = c
      END
`)
	defs := g.FindUse("MAIN", "C", 10)
	if len(defs) != 1 || defs[0].Kind != KPhi {
		t.Fatalf("use of c should reach a phi: %v", defs)
	}
	if len(defs[0].Ops) != 2 {
		t.Fatalf("phi should merge both arms: %v", defs[0].Ops)
	}
}

func TestLoopHeaderPhi(t *testing.T) {
	g := build(t, `
      PROGRAM main
      INTEGER s, i
      s = 0
      DO 10 i = 1, 5
        s = s + i
10    CONTINUE
      i = s
      END
`)
	// The use of s after the loop reaches the header phi, whose operands
	// are the initial def and the loop-body def (the recurrence).
	defs := g.FindUse("MAIN", "S", 8)
	if len(defs) != 1 || defs[0].Kind != KPhi {
		t.Fatalf("post-loop use should reach the loop phi: %v", defs)
	}
	phi := defs[0]
	if len(phi.Ops) != 2 {
		t.Fatalf("loop phi operands = %d, want entry + body", len(phi.Ops))
	}
	// The body def of s uses the phi (closing the cycle).
	inBody := g.FindUse("MAIN", "S", 6)
	if len(inBody) != 1 || inBody[0] != phi {
		t.Fatalf("body use should read the phi: %v", inBody)
	}
}

func TestWeakArrayUpdate(t *testing.T) {
	g := build(t, `
      PROGRAM main
      REAL a(10), x
      a(1) = 1.0
      a(2) = 2.0
      x = a(1)
      END
`)
	defs := g.FindUse("MAIN", "A", 6)
	if len(defs) != 1 || !defs[0].Weak {
		t.Fatalf("array use should reach the weak update: %v", defs)
	}
	// The weak chain reaches both stores.
	second := defs[0]
	foundFirst := false
	for _, op := range second.Ops {
		if op.Line == 4 {
			foundFirst = true
		}
	}
	if !foundFirst {
		t.Fatal("weak update must thread the previous array definition")
	}
}

func TestInterproceduralBindings(t *testing.T) {
	g := build(t, `
      SUBROUTINE f(x)
      INTEGER x
      x = x + 1
      END
      PROGRAM main
      INTEGER a
      a = 5
      CALL f(a)
      a = a + 0
      END
`)
	ins := g.FormalIn["F"]
	if len(ins) != 1 {
		t.Fatalf("formal-ins = %d", len(ins))
	}
	for _, in := range ins {
		bs := g.Bindings[in]
		if len(bs) != 1 || len(bs[0].Defs) != 1 || bs[0].Defs[0].Line != 8 {
			t.Fatalf("binding should carry a=5: %+v", bs)
		}
	}
	// After the call, a's def is a call-out linked to f's final def.
	defs := g.FindUse("MAIN", "A", 10)
	if len(defs) != 1 || defs[0].Kind != KCallOut {
		t.Fatalf("post-call use should reach a call-out: %v", defs)
	}
	if len(defs[0].CalleeFinal) != 1 || defs[0].CalleeFinal[0].Line != 4 {
		t.Fatalf("call-out should link to x = x + 1: %v", defs[0].CalleeFinal)
	}
}

func TestControlDependences(t *testing.T) {
	g := build(t, `
      PROGRAM main
      INTEGER a, b, c
      a = 1
      IF (a .GT. 0) THEN
        b = 2
      ENDIF
      c = 3
      END
`)
	var bDef, cDef *Node
	for _, n := range g.Nodes {
		if n.Kind != KDef || n.Sym == nil {
			continue
		}
		switch n.Sym.Name {
		case "B":
			bDef = n
		case "C":
			cDef = n
		}
	}
	if bDef == nil || len(bDef.Ctrl) == 0 || len(bDef.CtrlStmts) != 1 {
		t.Fatalf("guarded def must carry control deps: %+v", bDef)
	}
	if bDef.Ctrl[0].Line != 4 {
		t.Fatalf("control dep should be a's def: %v", bDef.Ctrl)
	}
	if cDef == nil || len(cDef.Ctrl) != 0 {
		t.Fatalf("unguarded def must have no control deps: %+v", cDef)
	}
}

// Single-assignment invariant: every non-φ, non-merge node defines exactly
// once; uses are dominated structurally by their defs (checked weakly: a
// use's def line never exceeds the use line within straight-line code).
func TestSSAInvariant(t *testing.T) {
	g := build(t, `
      PROGRAM main
      INTEGER a, b
      a = 1
      b = a
      a = 2
      b = a
      END
`)
	for e, defs := range g.UseDefs {
		for _, d := range defs {
			if d.Kind == KDef && d.Line > e.Position().Line {
				t.Fatalf("use at %d reaches later def at %d", e.Position().Line, d.Line)
			}
		}
	}
	_ = ir.Pos{}
}

// TestBuildIsDeterministic builds a program whose common block is declared
// in two shapes, so two canonical symbols named X reach MAIN's formal-ins,
// and checks that every build numbers its nodes in the same order.
func TestBuildIsDeterministic(t *testing.T) {
	prog, err := minif.Parse("t", `
      SUBROUTINE f
      COMMON /B/ X(50)
      X(1) = 1.0
      END
      SUBROUTINE g
      COMMON /B/ X(100)
      X(2) = 2.0
      END
      PROGRAM main
      COMMON /B/ X(100)
      CALL f
      CALL g
      X(3) = X(1) + X(2)
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	render := func(g *Graph) string {
		var sb strings.Builder
		for _, n := range g.Nodes {
			fmt.Fprintf(&sb, "%d %d %s %s%v %d\n", n.ID, n.Kind, n.Proc, n.Sym.Name, n.Sym.Dims, n.Line)
		}
		return sb.String()
	}
	want := render(Build(prog))
	for i := 0; i < 50; i++ {
		if got := render(Build(prog)); got != want {
			t.Fatalf("build %d numbers its nodes differently:\n%s\nwant:\n%s", i, got, want)
		}
	}
}
