// Package issa builds the interprocedural SSA form of §3.4: each procedure's
// body is converted to SSA with φ nodes at IF joins and loop headers, weak
// updates for array stores (an array definition merges the old array value,
// §3.4.2), and interprocedural edges modeled as parameter-in φ nodes (one
// operand per call site, tagged with the call so slicing stays
// context-sensitive) and return/final-definition edges.
package issa

import (
	"fmt"

	"suifx/internal/ir"
	"suifx/internal/modref"
)

// Kind classifies SSA nodes.
type Kind int

const (
	// KDef is an ordinary definition (assignment or READ target).
	KDef Kind = iota
	// KPhi merges definitions at IF joins and loop headers.
	KPhi
	// KFormalIn is the entry value of a formal parameter or common variable
	// (a φ over call sites).
	KFormalIn
	// KCallOut is the value of a variable after a call that may modify it
	// (the return edge).
	KCallOut
	// KIndex is a DO loop's index definition.
	KIndex
)

func (k Kind) String() string {
	switch k {
	case KDef:
		return "def"
	case KPhi:
		return "phi"
	case KFormalIn:
		return "formal-in"
	case KCallOut:
		return "call-out"
	default:
		return "index"
	}
}

// Node is one SSA definition.
type Node struct {
	ID   int
	Kind Kind
	Proc string
	Sym  *ir.Symbol
	Stmt ir.Stmt // defining statement (nil for FormalIn)
	Line int
	// Ops are the data operands: definitions whose values flow into this
	// one. Weak updates include the previous array definition.
	Ops []*Node
	// Ctrl are the definitions feeding the conditions under which this node
	// executes (all enclosing guards within the procedure).
	Ctrl []*Node
	// CtrlStmts are the guarding IF/DO statements themselves, for display.
	CtrlStmts []ir.Stmt
	// CalleeFinal links a KCallOut to the callee's final definition(s).
	CalleeFinal []*Node
	// Weak marks array element stores (the rest of the array flows through).
	Weak bool
}

func (n *Node) String() string {
	return fmt.Sprintf("%s:%s@%d#%d(%s)", n.Proc, n.Sym.Name, n.Line, n.ID, n.Kind)
}

// Binding records one call site's actual-value operands for a FormalIn φ.
type Binding struct {
	Call *ir.Call
	Defs []*Node
}

// Graph is the whole-program ISSA graph.
type Graph struct {
	Prog  *ir.Program
	MR    *modref.Info
	Nodes []*Node
	// FormalIn maps each procedure's entry values: formals and touched
	// common variables (representatives, ir.Symbol.Canon).
	FormalIn map[string]map[*ir.Symbol]*Node
	// FinalDef maps each procedure's exit definitions for the same symbols.
	FinalDef map[string]map[*ir.Symbol]*Node
	// Bindings lists, per FormalIn node, the per-call-site actual operands —
	// the φ arguments tagged with their return edge (§3.4.3).
	Bindings map[*Node][]Binding
	// UseDefs maps each use occurrence (VarRef/ArrayRef expression) to the
	// reaching definition(s) of the referenced variable.
	UseDefs map[ir.Expr][]*Node
	// touched lists the representative common symbols (ir.Symbol.Canon)
	// each proc (transitively) accesses.
	touched map[string][]*ir.Symbol

	next int
}

// Build constructs the ISSA graph for a program.
func Build(prog *ir.Program) *Graph {
	g := &Graph{
		Prog:     prog,
		MR:       modref.Analyze(prog),
		FormalIn: map[string]map[*ir.Symbol]*Node{},
		FinalDef: map[string]map[*ir.Symbol]*Node{},
		Bindings: map[*Node][]Binding{},
		UseDefs:  map[ir.Expr][]*Node{},
		touched:  map[string][]*ir.Symbol{},
	}
	order := prog.BottomUpOrder()
	for _, p := range order {
		g.computeTouched(p)
	}
	for _, p := range order {
		g.buildProc(p)
	}
	return g
}

// computeTouched collects the representative common symbols a procedure or
// its callees access: the procedure's own in name order, then each
// callee's in CallGraph order, so node numbering follows no map order.
func (g *Graph) computeTouched(p *ir.Proc) {
	seen := map[*ir.Symbol]bool{}
	var out []*ir.Symbol
	add := func(s *ir.Symbol) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range p.SortedSyms() {
		if s.Common != "" {
			add(s.Canon())
		}
	}
	for _, callee := range g.Prog.CallGraph()[p.Name] {
		for _, s := range g.touched[callee] {
			add(s)
		}
	}
	g.touched[p.Name] = out
}

func (g *Graph) newNode(k Kind, proc string, sym *ir.Symbol, stmt ir.Stmt, line int) *Node {
	g.next++
	n := &Node{ID: g.next, Kind: k, Proc: proc, Sym: sym, Stmt: stmt, Line: line}
	g.Nodes = append(g.Nodes, n)
	return n
}

// builder walks one procedure.
type builder struct {
	g     *Graph
	proc  *ir.Proc
	env   map[*ir.Symbol]*Node
	guard []guardEntry
}

type guardEntry struct {
	stmt ir.Stmt
	defs []*Node
}

func (g *Graph) buildProc(p *ir.Proc) {
	b := &builder{g: g, proc: p, env: map[*ir.Symbol]*Node{}}
	ins := map[*ir.Symbol]*Node{}
	for _, f := range p.Params {
		n := g.newNode(KFormalIn, p.Name, f, nil, p.Pos.Line)
		ins[f] = n
		b.env[f] = n
	}
	for _, c := range g.touched[p.Name] {
		n := g.newNode(KFormalIn, p.Name, c, nil, p.Pos.Line)
		ins[c] = n
		b.env[c] = n
	}
	g.FormalIn[p.Name] = ins
	b.walk(p.Body)
	finals := map[*ir.Symbol]*Node{}
	for sym := range ins {
		finals[sym] = b.lookup(sym)
	}
	g.FinalDef[p.Name] = finals
}

// lookup returns the current definition of sym, creating an implicit entry
// definition for locals first used before assignment.
func (b *builder) lookup(sym *ir.Symbol) *Node {
	key := sym.Canon()
	if n := b.env[key]; n != nil {
		return n
	}
	n := b.g.newNode(KFormalIn, b.proc.Name, key, nil, b.proc.Pos.Line)
	b.env[key] = n
	return n
}

func (b *builder) define(sym *ir.Symbol, n *Node) { b.env[sym.Canon()] = n }

// ctrlDefs flattens the current guard stack.
func (b *builder) ctrl() (defs []*Node, stmts []ir.Stmt) {
	for _, ge := range b.guard {
		defs = append(defs, ge.defs...)
		stmts = append(stmts, ge.stmt)
	}
	return
}

// useExpr records reaching definitions for every variable read in e and
// returns the definition nodes the expression's value depends on.
func (b *builder) useExpr(e ir.Expr) []*Node {
	var out []*Node
	ir.WalkExpr(e, func(x ir.Expr) {
		switch r := x.(type) {
		case *ir.VarRef:
			d := b.lookup(r.Sym)
			b.g.UseDefs[x] = []*Node{d}
			out = append(out, d)
		case *ir.ArrayRef:
			d := b.lookup(r.Sym)
			b.g.UseDefs[x] = []*Node{d}
			out = append(out, d)
		}
	})
	return out
}

func (b *builder) attachCtrl(n *Node) {
	defs, stmts := b.ctrl()
	n.Ctrl = defs
	n.CtrlStmts = stmts
}

func (b *builder) walk(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			ops := b.useExpr(st.Rhs)
			if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
				for _, ix := range ar.Idx {
					ops = append(ops, b.useExpr(ix)...)
				}
				// Weak update: the previous array value flows through.
				ops = append(ops, b.lookup(ar.Sym))
				n := b.g.newNode(KDef, b.proc.Name, ar.Sym.Canon(), s, st.Pos.Line)
				n.Ops = ops
				n.Weak = true
				b.attachCtrl(n)
				b.define(ar.Sym, n)
			} else {
				n := b.g.newNode(KDef, b.proc.Name, st.Lhs.Symbol().Canon(), s, st.Pos.Line)
				n.Ops = ops
				b.attachCtrl(n)
				b.define(st.Lhs.Symbol(), n)
			}
		case *ir.If:
			condDefs := b.useExpr(st.Cond)
			b.guard = append(b.guard, guardEntry{stmt: s, defs: condDefs})
			thenB := b.fork()
			thenB.walk(st.Then)
			elseB := b.fork()
			elseB.walk(st.Else)
			b.guard = b.guard[:len(b.guard)-1]
			b.join(s, thenB, elseB, condDefs)
		case *ir.DoLoop:
			b.walkLoop(st)
		case *ir.Call:
			b.walkCall(st)
		case *ir.IO:
			for _, a := range st.Args {
				if st.Write {
					b.useExpr(a)
					continue
				}
				if r, ok := a.(ir.Ref); ok {
					var ops []*Node
					if ar, ok2 := r.(*ir.ArrayRef); ok2 {
						for _, ix := range ar.Idx {
							ops = append(ops, b.useExpr(ix)...)
						}
						ops = append(ops, b.lookup(ar.Sym))
					}
					n := b.g.newNode(KDef, b.proc.Name, r.Symbol().Canon(), s, st.Pos.Line)
					n.Ops = ops
					n.Weak = r.Symbol().IsArray()
					b.attachCtrl(n)
					b.define(r.Symbol(), n)
				} else {
					b.useExpr(a)
				}
			}
		case *ir.Continue, *ir.Return, *ir.Stop:
		}
	}
}

func (b *builder) fork() *builder {
	env := make(map[*ir.Symbol]*Node, len(b.env))
	for k, v := range b.env {
		env[k] = v
	}
	return &builder{g: b.g, proc: b.proc, env: env, guard: b.guard}
}

// join merges two branch environments with φ nodes.
func (b *builder) join(at ir.Stmt, thenB, elseB *builder, condDefs []*Node) {
	syms := map[*ir.Symbol]bool{}
	for s := range thenB.env {
		syms[s] = true
	}
	for s := range elseB.env {
		syms[s] = true
	}
	for sym := range syms {
		td, ed := thenB.env[sym], elseB.env[sym]
		if td == nil {
			td = b.env[sym]
		}
		if ed == nil {
			ed = b.env[sym]
		}
		if td == ed {
			if td != nil {
				b.env[sym] = td
			}
			continue
		}
		phi := b.g.newNode(KPhi, b.proc.Name, sym, at, at.Position().Line)
		if td != nil {
			phi.Ops = append(phi.Ops, td)
		}
		if ed != nil {
			phi.Ops = append(phi.Ops, ed)
		}
		phi.Ctrl = condDefs
		phi.CtrlStmts = []ir.Stmt{at}
		b.env[sym] = phi
	}
}

func (b *builder) walkLoop(l *ir.DoLoop) {
	boundDefs := b.useExpr(l.Lo)
	boundDefs = append(boundDefs, b.useExpr(l.Hi)...)
	if l.Step != nil {
		boundDefs = append(boundDefs, b.useExpr(l.Step)...)
	}
	idx := b.g.newNode(KIndex, b.proc.Name, l.Index.Canon(), l, l.Pos.Line)
	idx.Ops = boundDefs
	b.attachCtrl(idx)

	// Header φ for every variable the body may modify.
	modified := b.g.MR.ModifiedScalars(b.proc, l.Body)
	// Arrays and call-modified variables too.
	ir.WalkStmts(l.Body, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Assign:
			if st.Lhs.Symbol().IsArray() {
				modified[st.Lhs.Symbol()] = true
			}
		case *ir.Call:
			for _, m := range b.g.MR.CallMods(b.proc, st) {
				modified[m] = true
			}
		case *ir.IO:
			if !st.Write {
				for _, a := range st.Args {
					if r, ok := a.(ir.Ref); ok {
						modified[r.Symbol()] = true
					}
				}
			}
		}
		return true
	})
	phis := map[*ir.Symbol]*Node{}
	for sym := range modified {
		if sym == l.Index {
			continue
		}
		phi := b.g.newNode(KPhi, b.proc.Name, sym.Canon(), l, l.Pos.Line)
		phi.Ops = append(phi.Ops, b.lookup(sym))
		phi.Ctrl = boundDefs
		phi.CtrlStmts = []ir.Stmt{l}
		phis[sym.Canon()] = phi
		b.define(sym, phi)
	}
	b.define(l.Index, idx)

	b.guard = append(b.guard, guardEntry{stmt: l, defs: append(boundDefs, idx)})
	body := b.fork()
	body.walk(l.Body)
	b.guard = b.guard[:len(b.guard)-1]

	// Backpatch: the φ's second operand is the body's final definition.
	for sym, phi := range phis {
		if fin := body.env[sym]; fin != nil && fin != phi {
			phi.Ops = append(phi.Ops, fin)
		}
		b.env[sym] = phi
	}
}

func (b *builder) walkCall(c *ir.Call) {
	callee := b.g.Prog.ByName[c.Name]
	ins := b.g.FormalIn[c.Name]
	finals := b.g.FinalDef[c.Name]
	// Bind formal-in φ operands for parameters.
	for i, f := range callee.Params {
		arg := c.Args[i]
		var defs []*Node
		switch x := arg.(type) {
		case *ir.VarRef:
			defs = b.useExpr(x)
		case *ir.ArrayRef:
			for _, ix := range x.Idx {
				defs = append(defs, b.useExpr(ix)...)
			}
			defs = append(defs, b.lookup(x.Sym))
			b.g.UseDefs[arg] = []*Node{b.lookup(x.Sym)}
		default:
			defs = b.useExpr(arg)
		}
		if in := ins[f]; in != nil {
			b.g.Bindings[in] = append(b.g.Bindings[in], Binding{Call: c, Defs: defs})
		}
	}
	// Bind common variables the callee touches.
	for _, sym := range b.g.touched[c.Name] {
		if in := ins[sym]; in != nil {
			b.g.Bindings[in] = append(b.g.Bindings[in], Binding{Call: c, Defs: []*Node{b.lookup(sym)}})
		}
	}
	ctrlDefs, ctrlStmts := b.ctrl()
	// Return edges: every variable the callee may modify gets a call-out def.
	mods := b.g.MR.Effects[c.Name]
	for i, f := range callee.Params {
		if i >= len(c.Args) || i >= len(mods.ModParam) || !mods.ModParam[i] {
			continue
		}
		base := modref.BaseSymbol(c.Args[i])
		if base == nil {
			continue
		}
		out := b.g.newNode(KCallOut, b.proc.Name, base.Canon(), c, c.Pos.Line)
		if fin := finals[f]; fin != nil {
			out.CalleeFinal = []*Node{fin}
		}
		out.Ctrl = ctrlDefs
		out.CtrlStmts = ctrlStmts
		b.define(base, out)
	}
	for _, sym := range b.g.touched[c.Name] {
		if !calleeModsCommon(mods, sym) {
			continue
		}
		out := b.g.newNode(KCallOut, b.proc.Name, sym, c, c.Pos.Line)
		if fin := finals[sym]; fin != nil {
			out.CalleeFinal = []*Node{fin}
		}
		out.Ctrl = ctrlDefs
		out.CtrlStmts = ctrlStmts
		b.define(sym, out)
	}
}

func calleeModsCommon(eff *modref.Effects, sym *ir.Symbol) bool {
	for _, r := range eff.ModCommon[sym.Common] {
		if r.Lo <= sym.CommonOffset+sym.NElems()-1 && sym.CommonOffset <= r.Hi {
			return true
		}
	}
	return false
}

// FindUse locates, in proc, a use of the named variable at the given source
// line, returning its recorded reaching defs (nil if none).
func (g *Graph) FindUse(proc, name string, line int) []*Node {
	p := g.Prog.ByName[proc]
	if p == nil {
		return nil
	}
	var found []*Node
	seen := map[*Node]bool{}
	add := func(defs []*Node) {
		for _, d := range defs {
			if !seen[d] {
				seen[d] = true
				found = append(found, d)
			}
		}
	}
	ir.WalkStmts(p.Body, func(s ir.Stmt) bool {
		// WalkExprs pre-orders every sub-expression already.
		ir.WalkExprs(s, func(x ir.Expr) {
			if x.Position().Line != line {
				return
			}
			switch r := x.(type) {
			case *ir.VarRef:
				if r.Sym.Name == name {
					add(g.UseDefs[x])
				}
			case *ir.ArrayRef:
				if r.Sym.Name == name {
					add(g.UseDefs[x])
				}
			}
		})
		return true
	})
	return found
}

// NodesAtLine returns all definitions created for a source line.
func (g *Graph) NodesAtLine(proc string, line int) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Proc == proc && n.Line == line {
			out = append(out, n)
		}
	}
	return out
}
