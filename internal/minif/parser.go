package minif

import (
	"fmt"
	"strconv"
	"strings"

	"suifx/internal/ir"
)

// Parse parses MiniF source text into an IR program. name labels the program
// for reporting; the program's entry point is its PROGRAM unit.
func Parse(name, src string) (*ir.Program, error) {
	lines, err := scan(src)
	if err != nil {
		return nil, err
	}
	prog := &ir.Program{
		Name:    name,
		ByName:  map[string]*ir.Proc{},
		Commons: map[string]*ir.CommonBlock{},
		Source:  strings.Split(src, "\n"),
	}
	p := &parser{prog: prog, lines: lines}
	for p.i < len(p.lines) {
		if err := p.parseUnit(); err != nil {
			return nil, err
		}
	}
	if prog.Main() == nil {
		return nil, fmt.Errorf("%s: no PROGRAM unit", name)
	}
	if err := checkCalls(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error, for tests and embedded workloads.
func MustParse(name, src string) *ir.Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	prog  *ir.Program
	lines []srcLine
	i     int

	// per-unit state
	proc   *ir.Proc
	consts map[string]float64 // PARAMETER constants
}

func (p *parser) cur() *srcLine { return &p.lines[p.i] }

func (p *parser) errf(line int, format string, args ...interface{}) error {
	return fmt.Errorf("%s: line %d: %s", p.prog.Name, line, fmt.Sprintf(format, args...))
}

// ---- program units ----

func (p *parser) parseUnit() error {
	l := p.cur()
	tp := newTokParser(l)
	kw, _ := tp.peekIdent()
	isMain := kw == "PROGRAM"
	if !isMain && kw != "SUBROUTINE" {
		return p.errf(l.num, "expected PROGRAM or SUBROUTINE, got %q", kw)
	}
	tp.next()
	name, ok := tp.ident()
	if !ok {
		return p.errf(l.num, "expected unit name")
	}
	p.proc = &ir.Proc{
		Name:   name,
		IsMain: isMain,
		Syms:   map[string]*ir.Symbol{},
		Pos:    ir.Pos{Line: l.num},
	}
	p.consts = map[string]float64{}
	if tp.eat("(") {
		for {
			pn, ok := tp.ident()
			if !ok {
				return p.errf(l.num, "expected parameter name")
			}
			sym := &ir.Symbol{Name: pn, Type: implicitType(pn), IsParam: true, ParamIndex: len(p.proc.Params)}
			p.proc.Params = append(p.proc.Params, sym)
			p.proc.Syms[pn] = sym
			if tp.eat(")") {
				break
			}
			if !tp.eat(",") {
				return p.errf(l.num, "expected , or ) in parameter list")
			}
		}
	}
	p.i++

	// Declarations.
	for p.i < len(p.lines) {
		l := p.cur()
		tp := newTokParser(l)
		kw, _ := tp.peekIdent()
		switch kw {
		case "INTEGER", "REAL":
			tp.next()
			if err := p.parseDecl(l, tp, kw); err != nil {
				return err
			}
		case "DIMENSION":
			tp.next()
			if err := p.parseDecl(l, tp, ""); err != nil {
				return err
			}
		case "COMMON":
			tp.next()
			if err := p.parseCommon(l, tp); err != nil {
				return err
			}
		case "PARAMETER":
			tp.next()
			if err := p.parseParameter(l, tp); err != nil {
				return err
			}
		default:
			goto body
		}
		p.i++
	}
body:
	stmts, end, err := p.parseStmts("")
	if err != nil {
		return err
	}
	if end != "END" {
		return p.errf(p.proc.Pos.Line, "unit %s not terminated by END", p.proc.Name)
	}
	p.proc.Body = stmts
	if p.i > 0 {
		p.proc.EndLine = p.lines[p.i-1].num
	}
	if p.prog.ByName[p.proc.Name] != nil {
		return p.errf(p.proc.Pos.Line, "duplicate procedure %s", p.proc.Name)
	}
	p.prog.Procs = append(p.prog.Procs, p.proc)
	p.prog.ByName[p.proc.Name] = p.proc
	return nil
}

// parseDecl handles INTEGER/REAL/DIMENSION lists: name or name(d1,...,dk),
// each dimension "n" or "lo:hi" with constant (or PARAMETER) bounds.
func (p *parser) parseDecl(l *srcLine, tp *tokParser, typ string) error {
	for {
		name, ok := tp.ident()
		if !ok {
			return p.errf(l.num, "expected name in declaration")
		}
		sym := p.proc.Syms[name]
		if sym == nil {
			sym = &ir.Symbol{Name: name, Type: implicitType(name)}
			p.proc.Syms[name] = sym
		}
		if typ == "INTEGER" {
			sym.Type = ir.TInt
		} else if typ == "REAL" {
			sym.Type = ir.TReal
		}
		if tp.eat("(") {
			dims, err := p.parseDims(l, tp)
			if err != nil {
				return err
			}
			sym.Dims = dims
		}
		if !tp.eat(",") {
			break
		}
	}
	return nil
}

func (p *parser) parseDims(l *srcLine, tp *tokParser) ([]ir.Dim, error) {
	var dims []ir.Dim
	for {
		a, err := p.constVal(l, tp)
		if err != nil {
			return nil, err
		}
		d := ir.Dim{Lo: 1, Hi: a}
		if tp.eat(":") {
			b, err := p.constVal(l, tp)
			if err != nil {
				return nil, err
			}
			d = ir.Dim{Lo: a, Hi: b}
		}
		if d.Hi < d.Lo {
			return nil, p.errf(l.num, "bad array bounds %d:%d", d.Lo, d.Hi)
		}
		dims = append(dims, d)
		if tp.eat(")") {
			return dims, nil
		}
		if !tp.eat(",") {
			return nil, p.errf(l.num, "expected , or ) in dimensions")
		}
	}
}

// constVal parses a (possibly negated) integer constant or PARAMETER name.
func (p *parser) constVal(l *srcLine, tp *tokParser) (int64, error) {
	neg := tp.eat("-")
	t := tp.next()
	var v int64
	switch t.kind {
	case tInt:
		n, _ := strconv.ParseInt(t.text, 10, 64)
		v = n
	case tIdent:
		c, ok := p.consts[t.text]
		if !ok {
			return 0, p.errf(l.num, "array bound %q is not a PARAMETER constant", t.text)
		}
		v = int64(c)
	default:
		return 0, p.errf(l.num, "expected constant, got %q", t.text)
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) parseCommon(l *srcLine, tp *tokParser) error {
	if !tp.eat("/") {
		return p.errf(l.num, "expected /name/ after COMMON")
	}
	bname, ok := tp.ident()
	if !ok {
		return p.errf(l.num, "expected common block name")
	}
	if !tp.eat("/") {
		return p.errf(l.num, "expected closing / after common block name")
	}
	blk := p.prog.Commons[bname]
	if blk == nil {
		blk = &ir.CommonBlock{Name: bname, Layouts: map[string][]*ir.Symbol{}}
		p.prog.Commons[bname] = blk
	}
	var layout []*ir.Symbol
	offset := int64(0)
	for {
		name, ok := tp.ident()
		if !ok {
			return p.errf(l.num, "expected name in COMMON list")
		}
		sym := p.proc.Syms[name]
		if sym == nil {
			sym = &ir.Symbol{Name: name, Type: implicitType(name)}
			p.proc.Syms[name] = sym
		}
		if tp.eat("(") {
			dims, err := p.parseDims(l, tp)
			if err != nil {
				return err
			}
			sym.Dims = dims
		}
		sym.Common = bname
		sym.CommonOffset = offset
		offset += sym.NElems()
		layout = append(layout, sym)
		if !tp.eat(",") {
			break
		}
	}
	blk.Layouts[p.proc.Name] = layout
	if offset > blk.Size {
		blk.Size = offset
	}
	return nil
}

func (p *parser) parseParameter(l *srcLine, tp *tokParser) error {
	if !tp.eat("(") {
		return p.errf(l.num, "expected ( after PARAMETER")
	}
	for {
		name, ok := tp.ident()
		if !ok {
			return p.errf(l.num, "expected name in PARAMETER")
		}
		if !tp.eat("=") {
			return p.errf(l.num, "expected = in PARAMETER")
		}
		neg := tp.eat("-")
		t := tp.next()
		var v float64
		switch t.kind {
		case tInt, tReal:
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return p.errf(l.num, "bad constant %q", t.text)
			}
			v = f
		case tIdent:
			c, ok := p.consts[t.text]
			if !ok {
				return p.errf(l.num, "unknown constant %q", t.text)
			}
			v = c
		default:
			return p.errf(l.num, "expected constant in PARAMETER")
		}
		if neg {
			v = -v
		}
		p.consts[name] = v
		if tp.eat(")") {
			return nil
		}
		if !tp.eat(",") {
			return p.errf(l.num, "expected , or ) in PARAMETER")
		}
	}
}

// ---- statements ----

// parseStmts parses statements until it reaches (without consuming) a line
// labeled stop, or consumes END/ELSE/ENDIF and returns that keyword.
// A "" stop means parse until END.
func (p *parser) parseStmts(stop string) ([]ir.Stmt, string, error) {
	var out []ir.Stmt
	for p.i < len(p.lines) {
		l := p.cur()
		if stop != "" && l.label == stop {
			return out, "", nil
		}
		tp := newTokParser(l)
		kw, _ := tp.peekIdent()
		switch kw {
		case "END":
			p.i++
			return out, "END", nil
		case "ELSE", "ENDIF":
			p.i++
			return out, kw, nil
		}
		s, err := p.parseStmt(l)
		if err != nil {
			return nil, "", err
		}
		if s != nil {
			out = append(out, s)
		}
	}
	if stop != "" {
		return nil, "", p.errf(p.lines[len(p.lines)-1].num, "missing statement labeled %s", stop)
	}
	return out, "", nil
}

func (p *parser) parseStmt(l *srcLine) (ir.Stmt, error) {
	tp := newTokParser(l)
	pos := ir.Pos{Line: l.num}
	kw, isIdent := tp.peekIdent()
	if isIdent {
		switch kw {
		case "DO":
			return p.parseDo(l, tp)
		case "IF":
			return p.parseIf(l, tp)
		case "CALL":
			tp.next()
			return p.parseCall(l, tp)
		case "CONTINUE":
			tp.next()
			p.i++
			return &ir.Continue{Label: l.label, Pos: pos}, nil
		case "RETURN":
			p.i++
			return &ir.Return{Pos: pos}, nil
		case "STOP":
			p.i++
			return &ir.Stop{Pos: pos}, nil
		case "WRITE", "READ", "PRINT":
			return p.parseIO(l, tp, kw != "READ")
		case "GOTO", "GO":
			return nil, p.errf(l.num, "unconditional GOTO is not supported (use IF (...) GO TO)")
		}
	}
	// Assignment.
	lhs, err := p.parseRef(l, tp)
	if err != nil {
		return nil, err
	}
	if !tp.eat("=") {
		return nil, p.errf(l.num, "expected = in assignment")
	}
	rhs, err := p.parseExpr(l, tp)
	if err != nil {
		return nil, err
	}
	if !tp.atEOF() {
		return nil, p.errf(l.num, "trailing tokens after assignment: %q", tp.peek().text)
	}
	p.i++
	return &ir.Assign{Lhs: lhs, Rhs: rhs, Pos: pos}, nil
}

func (p *parser) parseDo(l *srcLine, tp *tokParser) (ir.Stmt, error) {
	tp.next() // DO
	lab := tp.next()
	if lab.kind != tInt {
		return nil, p.errf(l.num, "expected label after DO")
	}
	idxName, ok := tp.ident()
	if !ok {
		return nil, p.errf(l.num, "expected index variable in DO")
	}
	idx := p.scalar(idxName)
	if !tp.eat("=") {
		return nil, p.errf(l.num, "expected = in DO")
	}
	lo, err := p.parseExpr(l, tp)
	if err != nil {
		return nil, err
	}
	if !tp.eat(",") {
		return nil, p.errf(l.num, "expected , in DO bounds")
	}
	hi, err := p.parseExpr(l, tp)
	if err != nil {
		return nil, err
	}
	var step ir.Expr
	if tp.eat(",") {
		step, err = p.parseExpr(l, tp)
		if err != nil {
			return nil, err
		}
	}
	p.i++
	body, end, err := p.parseStmts(lab.text)
	if err != nil {
		return nil, err
	}
	if end != "" {
		return nil, p.errf(l.num, "DO %s terminated by %s instead of labeled statement", lab.text, end)
	}
	// The terminating line (label == lab) is NOT consumed here: an enclosing
	// DO sharing the same label must also stop at it. The outermost such DO's
	// parent statement list consumes it as an ordinary CONTINUE.
	endLine := l.num
	if p.i < len(p.lines) {
		endLine = p.lines[p.i].num
	}
	return &ir.DoLoop{
		Index: idx, Lo: lo, Hi: hi, Step: step,
		Body: body, Label: lab.text,
		Pos: ir.Pos{Line: l.num}, EndLine: endLine,
	}, nil
}

func (p *parser) parseIf(l *srcLine, tp *tokParser) (ir.Stmt, error) {
	pos := ir.Pos{Line: l.num}
	tp.next() // IF
	if !tp.eat("(") {
		return nil, p.errf(l.num, "expected ( after IF")
	}
	cond, err := p.parseExpr(l, tp)
	if err != nil {
		return nil, err
	}
	if !tp.eat(")") {
		return nil, p.errf(l.num, "expected ) after IF condition")
	}
	kw, _ := tp.peekIdent()
	switch kw {
	case "THEN":
		p.i++
		thenStmts, end, err := p.parseStmts("")
		if err != nil {
			return nil, err
		}
		var elseStmts []ir.Stmt
		if end == "ELSE" {
			elseStmts, end, err = p.parseStmts("")
			if err != nil {
				return nil, err
			}
		}
		if end != "ENDIF" {
			return nil, p.errf(l.num, "IF/THEN not closed by ENDIF")
		}
		return &ir.If{Cond: cond, Then: thenStmts, Else: elseStmts, Pos: pos}, nil
	case "GO", "GOTO":
		tp.next()
		if kw == "GO" {
			if to, _ := tp.peekIdent(); to != "TO" {
				return nil, p.errf(l.num, "expected TO after GO")
			}
			tp.next()
		}
		lab := tp.next()
		if lab.kind != tInt {
			return nil, p.errf(l.num, "expected label after GO TO")
		}
		p.i++
		// Structured transformation: IF (c) GO TO L skips forward to L, so
		// everything up to (not including) the statement labeled L executes
		// under .NOT. c. The label may be an enclosing DO's terminator
		// ("cycle") or a later statement in this block.
		body, end, err := p.parseStmts(lab.text)
		if err != nil {
			return nil, err
		}
		if end != "" {
			return nil, p.errf(l.num, "GO TO %s target not found before %s", lab.text, end)
		}
		return &ir.If{
			Cond: &ir.Un{Op: ".NOT.", X: cond, Pos: pos},
			Then: body,
			Pos:  pos,
		}, nil
	default:
		// Logical IF: single statement on the same line.
		s, err := p.parseSimpleStmtTail(l, tp)
		if err != nil {
			return nil, err
		}
		return &ir.If{Cond: cond, Then: []ir.Stmt{s}, Pos: pos}, nil
	}
}

// parseSimpleStmtTail parses the single-statement tail of a logical IF
// (assignment or CALL), consuming the line.
func (p *parser) parseSimpleStmtTail(l *srcLine, tp *tokParser) (ir.Stmt, error) {
	pos := ir.Pos{Line: l.num}
	kw, _ := tp.peekIdent()
	if kw == "CALL" {
		tp.next()
		return p.parseCall(l, tp)
	}
	lhs, err := p.parseRef(l, tp)
	if err != nil {
		return nil, err
	}
	if !tp.eat("=") {
		return nil, p.errf(l.num, "expected = in logical IF body")
	}
	rhs, err := p.parseExpr(l, tp)
	if err != nil {
		return nil, err
	}
	p.i++
	return &ir.Assign{Lhs: lhs, Rhs: rhs, Pos: pos}, nil
}

func (p *parser) parseCall(l *srcLine, tp *tokParser) (ir.Stmt, error) {
	pos := ir.Pos{Line: l.num}
	name, ok := tp.ident()
	if !ok {
		return nil, p.errf(l.num, "expected subroutine name after CALL")
	}
	var args []ir.Expr
	if tp.eat("(") {
		if !tp.eat(")") {
			for {
				a, err := p.parseExpr(l, tp)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if tp.eat(")") {
					break
				}
				if !tp.eat(",") {
					return nil, p.errf(l.num, "expected , or ) in CALL arguments")
				}
			}
		}
	}
	p.i++
	return &ir.Call{Name: name, Args: args, Pos: pos}, nil
}

func (p *parser) parseIO(l *srcLine, tp *tokParser, write bool) (ir.Stmt, error) {
	pos := ir.Pos{Line: l.num}
	tp.next()        // WRITE/READ/PRINT
	if tp.eat("(") { // unit spec like (*,*) — skip to matching )
		depth := 1
		for depth > 0 {
			t := tp.next()
			if t.kind == tEOF {
				return nil, p.errf(l.num, "unterminated I/O unit spec")
			}
			if t.kind == tOp && t.text == "(" {
				depth++
			}
			if t.kind == tOp && t.text == ")" {
				depth--
			}
		}
	} else {
		tp.eat("*")
		tp.eat(",")
		tp.eat("*")
	}
	tp.eat(",")
	var args []ir.Expr
	for !tp.atEOF() {
		a, err := p.parseExpr(l, tp)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !tp.eat(",") {
			break
		}
	}
	p.i++
	return &ir.IO{Write: write, Args: args, Pos: pos}, nil
}

// ---- symbols ----

func implicitType(name string) ir.Type {
	c := name[0]
	if c >= 'I' && c <= 'N' || c >= 'i' && c <= 'n' {
		return ir.TInt
	}
	return ir.TReal
}

// scalar returns (creating if needed) the scalar symbol named n.
func (p *parser) scalar(n string) *ir.Symbol {
	if s := p.proc.Syms[n]; s != nil {
		return s
	}
	s := &ir.Symbol{Name: n, Type: implicitType(n)}
	p.proc.Syms[n] = s
	return s
}

// checkCalls validates that every CALL target exists with a compatible
// argument count, and links the program's call graph, which must be
// non-recursive.
func checkCalls(prog *ir.Program) error {
	var sites []ir.CallSite
	for _, pr := range prog.Procs {
		var err error
		ir.WalkStmts(pr.Body, func(s ir.Stmt) bool {
			c, ok := s.(*ir.Call)
			if !ok || err != nil {
				return true
			}
			callee := prog.ByName[c.Name]
			if callee == nil {
				err = fmt.Errorf("%s: line %d: CALL to undefined subroutine %s", prog.Name, c.Pos.Line, c.Name)
				return false
			}
			if len(c.Args) != len(callee.Params) {
				err = fmt.Errorf("%s: line %d: CALL %s passes %d args, wants %d",
					prog.Name, c.Pos.Line, c.Name, len(c.Args), len(callee.Params))
				return false
			}
			sites = append(sites, ir.CallSite{Caller: pr, Call: c})
			return true
		})
		if err != nil {
			return err
		}
	}
	if !prog.Link(sites) {
		return fmt.Errorf("%s: recursive call graph is not supported", prog.Name)
	}
	return nil
}
