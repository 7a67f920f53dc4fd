package minif

import (
	"strings"
	"testing"

	"suifx/internal/ir"
)

const tiny = `
      PROGRAM main
      REAL a(100), s
      INTEGER i, n
      n = 100
      s = 0.0
      DO 10 i = 1, n
        a(i) = i * 2.0
        s = s + a(i)
10    CONTINUE
      WRITE(*,*) s
      END
`

func TestParseTiny(t *testing.T) {
	p, err := Parse("tiny", tiny)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Main()
	if m == nil || m.Name != "MAIN" {
		t.Fatalf("main = %v", m)
	}
	loops := m.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Label != "10" || l.Index.Name != "I" {
		t.Fatalf("loop = %+v", l)
	}
	if len(l.Body) != 2 {
		t.Fatalf("loop body has %d stmts, want 2", len(l.Body))
	}
	a := m.Lookup("A")
	if a == nil || !a.IsArray() || a.Dims[0] != (ir.Dim{Lo: 1, Hi: 100}) {
		t.Fatalf("symbol A = %+v", a)
	}
	if m.Lookup("I").Type != ir.TInt || m.Lookup("S").Type != ir.TReal {
		t.Fatal("implicit/explicit typing wrong")
	}
}

func TestParseSharedDoTerminator(t *testing.T) {
	src := `
      PROGRAM main
      REAL d(10,10), t(10,10)
      INTEGER i, j
      DO 30 i = 2, 9
      DO 30 j = 2, 9
        t(i,j) = d(i-1,j)
        d(i,j) = t(i,j)
30    CONTINUE
      END
`
	p, err := Parse("shared", src)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Main()
	outer := m.OuterLoops()
	if len(outer) != 1 {
		t.Fatalf("outer loops = %d, want 1", len(outer))
	}
	inner, ok := outer[0].Body[0].(*ir.DoLoop)
	if !ok {
		t.Fatalf("inner stmt is %T", outer[0].Body[0])
	}
	if inner.Label != "30" || outer[0].Label != "30" {
		t.Fatal("shared label lost")
	}
	if len(inner.Body) != 2 {
		t.Fatalf("inner body = %d stmts", len(inner.Body))
	}
	// The shared 30 CONTINUE lands exactly once, after the outer loop.
	if len(m.Body) != 2 {
		t.Fatalf("proc body = %d stmts, want loop + CONTINUE", len(m.Body))
	}
	if _, ok := m.Body[1].(*ir.Continue); !ok {
		t.Fatalf("trailing stmt is %T, want Continue", m.Body[1])
	}
}

func TestParseIfGotoCycle(t *testing.T) {
	// The hydro vsetuv/85 pattern: IF (...) GO TO 85 skips the rest of the
	// loop body (a "cycle").
	src := `
      PROGRAM main
      INTEGER l, k1
      REAL x(10)
      DO 85 l = 2, 9
        k1 = l - 1
        IF (k1 .EQ. 0) GO TO 85
        x(l) = 1.0
85    CONTINUE
      END
`
	p, err := Parse("cyc", src)
	if err != nil {
		t.Fatal(err)
	}
	loop := p.Main().OuterLoops()[0]
	if len(loop.Body) != 2 {
		t.Fatalf("loop body = %d stmts, want assign + if", len(loop.Body))
	}
	ifs, ok := loop.Body[1].(*ir.If)
	if !ok {
		t.Fatalf("second stmt is %T, want If", loop.Body[1])
	}
	un, ok := ifs.Cond.(*ir.Un)
	if !ok || un.Op != ".NOT." {
		t.Fatalf("cond = %v, want .NOT.(...)", ifs.Cond)
	}
	if len(ifs.Then) != 1 {
		t.Fatalf("then arm = %d stmts", len(ifs.Then))
	}
}

func TestParseIfGotoForward(t *testing.T) {
	// The mdg interf/1000 pattern: forward GOTO within the loop body.
	src := `
      PROGRAM main
      INTEGER s, h
      REAL xps(10), y(11)
      DO 2365 s = 1, 9
2320    IF (s .NE. 1) GO TO 2355
        DO 2350 h = 1, 5
2349      xps(h) = y(h+1)
2350    CONTINUE
2355    CONTINUE
        xps(s) = y(s)
2365  CONTINUE
      END
`
	p, err := Parse("fwd", src)
	if err != nil {
		t.Fatal(err)
	}
	loop := p.Main().OuterLoops()[0]
	ifs, ok := loop.Body[0].(*ir.If)
	if !ok {
		t.Fatalf("first stmt is %T, want If", loop.Body[0])
	}
	// The guarded region holds the inner DO (plus its trailing CONTINUE).
	if _, ok := ifs.Then[0].(*ir.DoLoop); !ok {
		t.Fatalf("guarded stmt is %T, want DoLoop", ifs.Then[0])
	}
	// After the If: the 2355 CONTINUE then the assignment.
	if len(loop.Body) != 3 {
		t.Fatalf("loop body = %d stmts", len(loop.Body))
	}
}

func TestParseCommonDifferentShapes(t *testing.T) {
	// hydro2d's varh pattern: same common block, different shapes.
	src := `
      SUBROUTINE tistep
      COMMON /varh/ vz(10,10)
      INTEGER i
      REAL x
      x = vz(1,1)
      END
      SUBROUTINE trans2
      COMMON /varh/ vz1(0:10,10)
      vz1(0,1) = 2.0
      END
      PROGRAM main
      CALL tistep
      CALL trans2
      END
`
	p, err := Parse("cmn", src)
	if err != nil {
		t.Fatal(err)
	}
	blk := p.Commons["VARH"]
	if blk == nil {
		t.Fatal("no VARH common block")
	}
	if blk.Size != 110 {
		t.Fatalf("block size = %d, want 110 (11x10 layout)", blk.Size)
	}
	if len(blk.Layouts) != 2 {
		t.Fatalf("layouts = %d", len(blk.Layouts))
	}
	vz1 := p.Proc("TRANS2").Lookup("VZ1")
	if vz1.Dims[0] != (ir.Dim{Lo: 0, Hi: 10}) {
		t.Fatalf("vz1 dims = %+v", vz1.Dims)
	}
}

func TestParseSubarrayArgument(t *testing.T) {
	// Fig 5-1: CALL init(aif3(k1), k2-k1+1)
	src := `
      SUBROUTINE init(q, n)
      REAL q(100)
      INTEGER j, n
      DO 10 j = 1, n
        q(j) = 0.0
10    CONTINUE
      END
      PROGRAM main
      REAL aif3(100)
      INTEGER k1, k2
      k1 = 3
      k2 = 7
      CALL init(aif3(k1), k2-k1+1)
      END
`
	p, err := Parse("sub", src)
	if err != nil {
		t.Fatal(err)
	}
	var call *ir.Call
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.Call); ok {
			call = c
		}
		return true
	})
	if call == nil {
		t.Fatal("no call found")
	}
	ar, ok := call.Args[0].(*ir.ArrayRef)
	if !ok || ar.Sym.Name != "AIF3" || len(ar.Idx) != 1 {
		t.Fatalf("arg0 = %v", call.Args[0])
	}
}

func TestParseParameterConstants(t *testing.T) {
	src := `
      PROGRAM main
      PARAMETER (n = 50, m = n)
      REAL a(n, m)
      a(1,1) = n
      END
`
	p, err := Parse("param", src)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Main().Lookup("A")
	if a.Dims[0].Hi != 50 || a.Dims[1].Hi != 50 {
		t.Fatalf("dims = %+v", a.Dims)
	}
	asg := p.Main().Body[0].(*ir.Assign)
	c, ok := asg.Rhs.(*ir.Const)
	if !ok || c.Val != 50 {
		t.Fatalf("rhs = %v, want folded constant 50", asg.Rhs)
	}
}

func TestParseLogicalIfAndIntrinsics(t *testing.T) {
	src := `
      PROGRAM main
      REAL tmin, a(10)
      INTEGER i, kc
      kc = 0
      tmin = 1E30
      DO 10 i = 1, 10
        IF (a(i) .LT. tmin) tmin = a(i)
        IF (a(i) .GT. 2.0 .AND. i .NE. 5) kc = kc + 1
        a(i) = MAX(a(i), MIN(1.0, 2.0, 3.0)) + MOD(i, 3) + ABS(a(i)) + SQRT(a(i))
10    CONTINUE
      END
`
	if _, err := Parse("intr", src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no-main", "      SUBROUTINE f\n      END\n", "no PROGRAM"},
		{"undeclared-array", "      PROGRAM m\n      x(1) = 2\n      END\n", "not declared as an array"},
		{"bad-call", "      PROGRAM m\n      CALL nope\n      END\n", "undefined subroutine"},
		{"arg-count", "      SUBROUTINE f(a)\n      END\n      PROGRAM m\n      CALL f\n      END\n", "wants 1"},
		{"recursion", "      SUBROUTINE f\n      CALL f\n      END\n      PROGRAM m\n      CALL f\n      END\n", "recursive"},
		{"mutual-recursion", "      SUBROUTINE f\n      CALL g\n      END\n      SUBROUTINE g\n      CALL f\n      END\n      PROGRAM m\n      CALL f\n      END\n", "recursive"},
		{"three-cycle", "      PROGRAM m\n      CALL f\n      END\n      SUBROUTINE f\n      CALL g\n      END\n      SUBROUTINE g\n      CALL h\n      END\n      SUBROUTINE h\n      CALL f\n      END\n", "recursive"},
		{"missing-do-label", "      PROGRAM m\n      INTEGER i\n      DO 10 i = 1, 5\n      x = 1\n      END\n", "labeled"},
		{"stop-in-subroutine", "      SUBROUTINE f\n      x = 1\n      STOP\n      END\n      PROGRAM m\n      CALL f\n      END\n", "line 3: STOP outside the main program"},
	}
	for _, c := range cases {
		_, err := Parse(c.name, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
C classic comment
* star comment
      PROGRAM main   ! trailing
! bang comment
      REAL c(10)
      c(1) = 1.0
      END
`
	p, err := Parse("cmt", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Main().Body); got != 1 {
		t.Fatalf("body = %d stmts", got)
	}
}

func TestLoopIDAndLines(t *testing.T) {
	p := MustParse("tiny", tiny)
	l := p.Main().Loops()[0]
	if l.ID("MAIN") != "MAIN/10" {
		t.Fatalf("ID = %s", l.ID("MAIN"))
	}
	if l.Pos.Line >= l.EndLine {
		t.Fatalf("loop lines %d..%d", l.Pos.Line, l.EndLine)
	}
}
