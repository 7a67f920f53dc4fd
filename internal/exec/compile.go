package exec

import (
	"fmt"

	"suifx/internal/ir"
)

// The lowering from IR to bytecode. Virtual-time accounting is preserved
// exactly: the tree-walker charges 1 op per statement executed and 1 op per
// expression node evaluated, and op totals are only observable at loop
// enter/iter/exit events (that is where the profiler samples the clock), so
// the compiler is free to fold each statement's pending ticks onto the
// first instruction it emits for that statement. Hook-relevant event order
// (argument evaluation order, short-circuit skipping, index-expression
// evaluation before stores) follows the tree-walker statement by statement.

type compiler struct {
	prog         *ir.Program
	lay          *layout
	instrumented bool
	c            *code
	pending      int // statement/expression ticks to fold onto the next instruction
	curStmt      ir.Stmt
	curProc      *ir.Proc
	entryOf      map[string]int32
	depth        int // static eval-stack depth at the current emit point
	maxDepth     int

	// bank, in a worker view, is the storage binding (parallel.go) whose
	// addresses become the view's precompiled operands.
	bank *bank
}

// compileProgram lowers a whole program to the unfused stream; every
// caller but FusionCensus runs fuseCode over the result.
func compileProgram(prog *ir.Program, lay *layout, instrumented bool) *code {
	c := &compiler{
		prog:         prog,
		lay:          lay,
		instrumented: instrumented,
		c:            &code{lay: lay, instrumented: instrumented},
		entryOf:      map[string]int32{},
	}
	for _, p := range prog.Procs {
		c.entryOf[p.Name] = int32(len(c.c.ins))
		if p.IsMain {
			c.c.entry = int32(len(c.c.ins))
		}
		c.curProc = p
		c.stmts(p.Body)
		// Implicit RETURN at the end of the body (carries no tick: the
		// tree-walker charges nothing for falling off the end).
		c.curStmt = nil
		c.emit(opReturn, 0, 0, 0)
	}
	for i := range c.c.calls {
		ci := &c.c.calls[i]
		ci.entry = c.entryOf[ci.name]
	}
	c.c.maxStack = c.maxDepth + 8
	return c.c
}

// compileLoopBody lowers one approved parallel loop's body — plus every
// procedure reachable from it — into a standalone instruction stream whose
// entry executes the body exactly once. The parallel runtime stores the
// iteration's index value at the rebound index cell and calls run() per
// iteration, so one compiled view per worker replaces the tree-walker's
// per-call map lookups with fixed addresses. Views are never instrumented:
// worker clones drop hooks on the tree path too.
func compileLoopBody(prog *ir.Program, lay *layout, proc *ir.Proc, l *ir.DoLoop, b *bank) *code {
	c := &compiler{
		prog:    prog,
		lay:     lay,
		c:       &code{lay: lay},
		entryOf: map[string]int32{},
		bank:    b,
	}
	c.curProc = proc
	c.stmts(l.Body)
	c.curStmt = nil
	c.emit(opReturn, 0, 0, 0)
	for _, p := range reachableProcs(prog, l) {
		c.entryOf[p.Name] = int32(len(c.c.ins))
		c.curProc = p
		c.stmts(p.Body)
		c.curStmt = nil
		c.emit(opReturn, 0, 0, 0)
	}
	for i := range c.c.calls {
		ci := &c.c.calls[i]
		ci.entry = c.entryOf[ci.name]
	}
	c.c.maxStack = c.maxDepth + 8
	return c.c
}

// emit appends one instruction, folding any pending ticks onto it.
func (c *compiler) emit(op opcode, a, b int32, f float64) int32 {
	t := c.pending
	c.pending = 0
	for t > 255 { // cannot happen with the current lowering; guard anyway
		c.c.ins = append(c.c.ins, instr{op: opNop, tick: 255})
		c.c.stmtOf = append(c.c.stmtOf, c.curStmt)
		t -= 255
	}
	c.c.ins = append(c.c.ins, instr{op: op, tick: uint8(t), a: a, b: b, f: f})
	c.c.stmtOf = append(c.c.stmtOf, c.curStmt)
	return int32(len(c.c.ins) - 1)
}

func (c *compiler) push(n int) {
	c.depth += n
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *compiler) pop(n int) { c.depth -= n }

func (c *compiler) errInstr(msg string) {
	id := int32(len(c.c.errs))
	c.c.errs = append(c.c.errs, msg)
	c.emit(opErr, id, 0, 0)
}

func (c *compiler) stmts(list []ir.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s ir.Stmt) {
	c.curStmt = s
	c.pending++ // execStmt's per-statement tick
	switch st := s.(type) {
	case *ir.Assign:
		c.expr(st.Rhs)
		c.store(st.Lhs)
	case *ir.If:
		c.expr(st.Cond)
		jz := c.emit(opJZ, 0, 0, 0)
		c.pop(1)
		c.stmts(st.Then)
		c.curStmt = s
		if len(st.Else) > 0 {
			jmp := c.emit(opJmp, 0, 0, 0)
			c.c.ins[jz].a = int32(len(c.c.ins))
			c.stmts(st.Else)
			c.curStmt = s
			c.c.ins[jmp].a = int32(len(c.c.ins))
		} else {
			c.c.ins[jz].a = int32(len(c.c.ins))
		}
	case *ir.DoLoop:
		c.loop(st)
	case *ir.Call:
		c.call(st)
	case *ir.IO:
		c.io(st)
	case *ir.Continue:
		c.emit(opNop, 0, 0, 0) // carries the statement tick
	case *ir.Return, *ir.Stop:
		// The tree-walker's execCall discards sigStop exactly like
		// sigReturn, so STOP and RETURN lower identically.
		c.emit(opReturn, 0, 0, 0)
	default:
		panic(fmt.Sprintf("exec: cannot lower statement %T", s))
	}
}

func (c *compiler) loop(l *ir.DoLoop) {
	li := int32(len(c.c.loops))
	lm := loopMeta{loop: l, proc: c.curProc.Name, line: int32(l.Pos.Line)}
	switch sym := l.Index; {
	case sym.IsParam && !c.rebound(sym):
		lm.idxParam, lm.idxOp = true, int32(sym.ParamIndex)
	default:
		lm.idxOp = c.absAddr(sym)
	}
	c.c.loops = append(c.c.loops, lm)

	c.expr(l.Lo)
	c.expr(l.Hi)
	if l.Step != nil {
		c.expr(l.Step)
	} else {
		// Implicit step 1: the tree-walker evaluates nothing, so no tick.
		c.emit(opConst, 0, 0, 1)
		c.push(1)
	}
	c.emit(opLoopInit, li, 0, 0)
	c.pop(3)
	head := c.emit(opLoopHead, li, 0, 0)
	c.stmts(l.Body)
	c.curStmt = l
	c.emit(opLoopNext, head, 0, 0)
	c.c.ins[head].b = int32(len(c.c.ins))
}

func (c *compiler) call(cs *ir.Call) {
	callee := c.prog.ByName[cs.Name]
	if callee == nil {
		c.errInstr(fmt.Sprintf("exec: line %d: unknown subroutine %s", cs.Pos.Line, cs.Name))
		return
	}
	if len(cs.Args) < len(callee.Params) {
		c.errInstr(fmt.Sprintf("exec: line %d: call %s passes %d args for %d params",
			cs.Pos.Line, cs.Name, len(cs.Args), len(callee.Params)))
		return
	}
	ci := callInfo{name: cs.Name, line: int32(cs.Pos.Line), kinds: make([]uint8, len(callee.Params))}
	for i := range callee.Params {
		switch x := cs.Args[i].(type) {
		case *ir.VarRef:
			ci.kinds[i] = argBind
			c.argAddr(x.Sym, nil, cs)
		case *ir.ArrayRef:
			ci.kinds[i] = argBind
			if len(x.Idx) > 0 {
				c.argAddr(x.Sym, x, cs)
			} else {
				c.argAddr(x.Sym, nil, cs)
			}
		default:
			ci.kinds[i] = argValue
			c.expr(cs.Args[i])
		}
	}
	id := int32(len(c.c.calls))
	c.c.calls = append(c.c.calls, ci)
	c.emit(opCall, id, 0, 0)
	c.pop(len(callee.Params))
}

// argAddr pushes the binding address for a by-reference argument. Like the
// tree-walker, this charges no tick for the reference itself — only
// subarray index expressions are evaluated (with their usual ticks).
func (c *compiler) argAddr(sym *ir.Symbol, ar *ir.ArrayRef, s ir.Stmt) {
	withOff := int32(0)
	if ar != nil {
		c.offset(ar, s)
		withOff = 1
	}
	op, a := opArgAddrG, c.absAddr(sym)
	if sym.IsParam && !c.rebound(sym) {
		op, a = opArgAddrP, int32(sym.ParamIndex)
	}
	c.emit(op, a, withOff, 0)
	if ar == nil {
		c.push(1)
	}
}

func (c *compiler) io(st *ir.IO) {
	if st.Write {
		for _, a := range st.Args {
			c.expr(a)
		}
		c.emit(opWrite, int32(len(st.Args)), 0, 0)
		c.pop(len(st.Args))
		return
	}
	// READ: deterministic pseudo-input — store 0 to each reference argument.
	// The zero is not an evaluated expression in the tree-walker, so the
	// constant push carries no eval tick.
	emitted := false
	for _, a := range st.Args {
		r, ok := a.(ir.Ref)
		if !ok {
			continue
		}
		c.emit(opConst, 0, 0, 0)
		c.push(1)
		c.store(r)
		emitted = true
	}
	if !emitted {
		c.emit(opNop, 0, 0, 0) // carries the statement tick
	}
}

func (c *compiler) store(lhs ir.Ref) {
	switch x := lhs.(type) {
	case *ir.VarRef:
		op, a := c.accessOp(x.Sym, opStoreG, opStoreP, opStoreGI, opStorePI)
		c.emit(op, a, 0, 0)
		c.pop(1)
	case *ir.ArrayRef:
		c.offset(x, c.curStmt)
		op, a := c.accessOp(x.Sym, opStoreGE, opStorePE, opStoreGEI, opStorePEI)
		c.emit(op, a, 0, 0)
		c.pop(2)
	default:
		panic(fmt.Sprintf("exec: unassignable reference %T", lhs))
	}
}

// offset lowers an array reference's index expressions into a chained
// bounds-checked offset computation (net stack effect: +1).
func (c *compiler) offset(ar *ir.ArrayRef, s ir.Stmt) {
	dims := ar.Sym.Dims
	if len(ar.Idx) != len(dims) {
		c.errInstr(fmt.Sprintf("exec: line %d: %s subscripted with %d of %d dims",
			s.Position().Line, ar.Sym.Name, len(ar.Idx), len(dims)))
		c.push(1) // keep static accounting balanced past the dead code
		return
	}
	stride := int64(1)
	for d, ix := range ar.Idx {
		c.expr(ix)
		di := int32(len(c.c.idx))
		c.c.idx = append(c.c.idx, idxData{
			lo: dims[d].Lo, hi: dims[d].Hi, stride: stride,
			line: int32(s.Position().Line), dim: int32(d + 1), name: ar.Sym.Name,
		})
		if d == 0 {
			c.emit(opIdx, di, 0, 0)
		} else {
			c.emit(opIdxAdd, di, 0, 0)
			c.pop(1)
		}
		stride *= dims[d].Size()
	}
}

func (c *compiler) accessOp(sym *ir.Symbol, g, p, gi, pi opcode) (opcode, int32) {
	if sym.IsParam && !c.rebound(sym) {
		if c.instrumented {
			return pi, int32(sym.ParamIndex)
		}
		return p, int32(sym.ParamIndex)
	}
	if c.instrumented {
		return gi, c.absAddr(sym)
	}
	return g, c.absAddr(sym)
}

// rebound reports whether a symbol has a worker-private address, which
// overrides even parameter binding (the oracle's worker frame leaves a
// bound formal out for the same reason).
func (c *compiler) rebound(sym *ir.Symbol) bool {
	_, ok := c.bank.addr(sym)
	return ok
}

func (c *compiler) absAddr(sym *ir.Symbol) int32 {
	if a, ok := c.bank.addr(sym); ok {
		return int32(a)
	}
	if sym.Common != "" {
		return int32(c.lay.blockOff[sym.Common] + sym.CommonOffset)
	}
	return int32(c.lay.base[sym])
}

func (c *compiler) expr(e ir.Expr) {
	c.pending++ // eval's per-node tick
	switch x := e.(type) {
	case *ir.Const:
		c.emit(opConst, 0, 0, x.Val)
		c.push(1)
	case *ir.VarRef:
		op, a := c.accessOp(x.Sym, opLoadG, opLoadP, opLoadGI, opLoadPI)
		c.emit(op, a, 0, 0)
		c.push(1)
	case *ir.ArrayRef:
		c.offset(x, c.curStmt)
		op, a := c.accessOp(x.Sym, opLoadGE, opLoadPE, opLoadGEI, opLoadPEI)
		c.emit(op, a, 0, 0)
		// offset pushed 1, the load replaces it: net 0 here.
	case *ir.Un:
		c.expr(x.X)
		if x.Op == "-" {
			c.emit(opNeg, 0, 0, 0)
		} else {
			c.emit(opNot, 0, 0, 0)
		}
	case *ir.Bin:
		c.bin(x)
	case *ir.Intrinsic:
		for _, a := range x.Args {
			c.expr(a)
		}
		id, ok := intrinsicID(x.Name)
		if !ok {
			// The tree-walker evaluates all arguments first, then fails.
			c.errInstr(fmt.Sprintf("exec: unknown intrinsic %s", x.Name))
			c.pop(len(x.Args))
			c.push(1)
			return
		}
		c.emit(opIntrin, id, int32(len(x.Args)), 0)
		c.pop(len(x.Args) - 1)
	default:
		panic(fmt.Sprintf("exec: cannot lower expression %T", e))
	}
}

func (c *compiler) bin(x *ir.Bin) {
	c.expr(x.L)
	switch x.Op {
	case ir.OpAnd:
		// Short-circuit: a false left side is the result (0) and the right
		// side's ticks are skipped, exactly like the tree-walker.
		j := c.emit(opAndJmp, 0, 0, 0)
		c.pop(1)
		c.expr(x.R)
		c.emit(opBool, 0, 0, 0)
		c.c.ins[j].a = int32(len(c.c.ins))
		return
	case ir.OpOr:
		j := c.emit(opOrJmp, 0, 0, 0)
		c.pop(1)
		c.expr(x.R)
		c.emit(opBool, 0, 0, 0)
		c.c.ins[j].a = int32(len(c.c.ins))
		return
	}
	c.expr(x.R)
	var op opcode
	switch x.Op {
	case ir.OpAdd:
		op = opAdd
	case ir.OpSub:
		op = opSub
	case ir.OpMul:
		op = opMul
	case ir.OpDiv:
		op = opDiv
	case ir.OpEQ:
		op = opEQ
	case ir.OpNE:
		op = opNE
	case ir.OpLT:
		op = opLT
	case ir.OpLE:
		op = opLE
	case ir.OpGT:
		op = opGT
	case ir.OpGE:
		op = opGE
	default:
		panic(fmt.Sprintf("exec: cannot lower operator %v", x.Op))
	}
	c.emit(op, int32(x.Pos.Line), 0, 0)
	c.pop(1)
}

// Intrinsic ids for opIntrin.
const (
	inMIN = iota
	inMAX
	inMOD
	inABS
	inSQRT
	inEXP
	inSIN
	inCOS
	inINT
	inFLOAT
)

func intrinsicID(name string) (int32, bool) {
	switch name {
	case "MIN":
		return inMIN, true
	case "MAX":
		return inMAX, true
	case "MOD":
		return inMOD, true
	case "ABS":
		return inABS, true
	case "SQRT":
		return inSQRT, true
	case "EXP":
		return inEXP, true
	case "SIN":
		return inSIN, true
	case "COS":
		return inCOS, true
	case "INT":
		return inINT, true
	case "FLOAT", "DBLE":
		return inFLOAT, true
	}
	return 0, false
}
