package ir

import (
	"fmt"
	"slices"
	"strings"
)

// Stmt is any MiniF statement.
type Stmt interface {
	Position() Pos
	stmt()
}

// Expr is any MiniF expression.
type Expr interface {
	Position() Pos
	expr()
	String() string
}

// Ref is an assignable reference (scalar variable or array element).
type Ref interface {
	Expr
	Symbol() *Symbol
}

// ---- Expressions ----

// Const is a numeric literal.
type Const struct {
	Val   float64
	IsInt bool
	Pos   Pos
}

// IntConst builds an integer literal.
func IntConst(v int64) *Const { return &Const{Val: float64(v), IsInt: true} }

// VarRef is a use of (or assignment to) a scalar variable.
type VarRef struct {
	Sym *Symbol
	Pos Pos
}

// ArrayRef is an array element access a(i1, ..., ik). When used as a CALL
// argument with fewer indices than dimensions it denotes a subarray starting
// point (Fortran sequence association).
type ArrayRef struct {
	Sym *Symbol
	Idx []Expr
	Pos Pos
}

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEQ: ".EQ.", OpNE: ".NE.", OpLT: ".LT.", OpLE: ".LE.",
	OpGT: ".GT.", OpGE: ".GE.", OpAnd: ".AND.", OpOr: ".OR.",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsComparison reports whether the operator yields a logical value.
func (o BinOp) IsComparison() bool { return o >= OpEQ && o <= OpGE }

// Bin is a binary expression.
type Bin struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
}

// Un is a unary expression: negation or .NOT.
type Un struct {
	Op  string // "-" or ".NOT."
	X   Expr
	Pos Pos
}

// Intrinsic is a call to a built-in function (MIN, MAX, MOD, ABS, SQRT, EXP,
// SIN, COS, INT, DBLE).
type Intrinsic struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (e *Const) Position() Pos     { return e.Pos }
func (e *VarRef) Position() Pos    { return e.Pos }
func (e *ArrayRef) Position() Pos  { return e.Pos }
func (e *Bin) Position() Pos       { return e.Pos }
func (e *Un) Position() Pos        { return e.Pos }
func (e *Intrinsic) Position() Pos { return e.Pos }

func (*Const) expr()     {}
func (*VarRef) expr()    {}
func (*ArrayRef) expr()  {}
func (*Bin) expr()       {}
func (*Un) expr()        {}
func (*Intrinsic) expr() {}

// Symbol implements Ref.
func (e *VarRef) Symbol() *Symbol   { return e.Sym }
func (e *ArrayRef) Symbol() *Symbol { return e.Sym }

func (e *Const) String() string {
	if e.IsInt {
		return fmt.Sprintf("%d", int64(e.Val))
	}
	return fmt.Sprintf("%g", e.Val)
}
func (e *VarRef) String() string { return e.Sym.Name }
func (e *ArrayRef) String() string {
	parts := make([]string, len(e.Idx))
	for i, x := range e.Idx {
		parts[i] = x.String()
	}
	return e.Sym.Name + "(" + strings.Join(parts, ",") + ")"
}
func (e *Bin) String() string {
	op := e.Op.String()
	if e.Op.IsComparison() || e.Op == OpAnd || e.Op == OpOr {
		return "(" + e.L.String() + " " + op + " " + e.R.String() + ")"
	}
	return "(" + e.L.String() + op + e.R.String() + ")"
}
func (e *Un) String() string { return e.Op + e.X.String() }
func (e *Intrinsic) String() string {
	parts := make([]string, len(e.Args))
	for i, x := range e.Args {
		parts[i] = x.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

// SameExpr reports whether a and b are the same expression: one shape,
// with the same operators and intrinsics over the same symbols (by pointer)
// and constant values.
func SameExpr(a, b Expr) bool {
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && x.Val == y.Val
	case *VarRef:
		y, ok := b.(*VarRef)
		return ok && x.Sym == y.Sym
	case *ArrayRef:
		y, ok := b.(*ArrayRef)
		return ok && x.Sym == y.Sym && slices.EqualFunc(x.Idx, y.Idx, SameExpr)
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && SameExpr(x.L, y.L) && SameExpr(x.R, y.R)
	case *Un:
		y, ok := b.(*Un)
		return ok && x.Op == y.Op && SameExpr(x.X, y.X)
	case *Intrinsic:
		y, ok := b.(*Intrinsic)
		return ok && x.Name == y.Name && slices.EqualFunc(x.Args, y.Args, SameExpr)
	}
	return false
}

// ---- Statements ----

// Assign is lhs = rhs.
type Assign struct {
	Lhs Ref
	Rhs Expr
	Pos Pos
}

// DoLoop is a labeled DO loop: DO <label> index = lo, hi [, step].
type DoLoop struct {
	Index   *Symbol
	Lo, Hi  Expr
	Step    Expr // nil means 1
	Body    []Stmt
	Label   string // numeric label, e.g. "1000"
	Pos     Pos
	EndLine int // line of the terminating CONTINUE
}

// ID returns the paper-style loop identifier "proc/label".
func (l *DoLoop) ID(proc string) string { return proc + "/" + l.Label }

// If is a structured IF/THEN/ELSE. One-armed logical IFs parse with a single
// statement in Then and nil Else.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// Call invokes a subroutine. Array arguments may be bare names (whole array)
// or ArrayRef starting points (subarrays).
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

// IO is a READ or WRITE statement. Its presence disqualifies an enclosing
// loop from parallelization (§2.6: loops with I/O are excluded).
type IO struct {
	Write bool
	Args  []Expr
	Pos   Pos
}

// Continue is a labeled no-op (DO terminator or GOTO target).
type Continue struct {
	Label string
	Pos   Pos
}

// Return exits the procedure.
type Return struct {
	Pos Pos
}

// Stop ends the program.
type Stop struct {
	Pos Pos
}

func (s *Assign) Position() Pos   { return s.Pos }
func (s *DoLoop) Position() Pos   { return s.Pos }
func (s *If) Position() Pos       { return s.Pos }
func (s *Call) Position() Pos     { return s.Pos }
func (s *IO) Position() Pos       { return s.Pos }
func (s *Continue) Position() Pos { return s.Pos }
func (s *Return) Position() Pos   { return s.Pos }
func (s *Stop) Position() Pos     { return s.Pos }

func (*Assign) stmt()   {}
func (*DoLoop) stmt()   {}
func (*If) stmt()       {}
func (*Call) stmt()     {}
func (*IO) stmt()       {}
func (*Continue) stmt() {}
func (*Return) stmt()   {}
func (*Stop) stmt()     {}
