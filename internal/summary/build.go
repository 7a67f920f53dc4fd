package summary

import (
	"maps"
	"strings"

	"suifx/internal/ir"
	"suifx/internal/lin"
	"suifx/internal/modref"
	"suifx/internal/region"
	"suifx/internal/symbolic"
)

// Analysis holds the whole-program array data-flow results.
//
// The mutable result maps (ProcSum, RegionSum, ...) are filled by Merge;
// everything else (Prog, MR, Reg) is built once by NewAnalysis and is
// read-only afterwards, so AnalyzeProc calls for different procedures may
// run concurrently as long as every callee's result has been merged (or is
// reachable through the callee lookup) first.
type Analysis struct {
	Prog *ir.Program
	MR   *modref.Info
	Reg  *region.Info

	// ProcSum is the procedure summary in callee space with local names
	// projected away — what call sites map into their callers.
	ProcSum map[string]*Tuple
	// RegionSum is the full summary of each proc and loop region.
	RegionSum map[*region.Region]*Tuple
	// BodySum is the per-iteration summary of each loop body, with the loop
	// index as a free variable (used by dependence and privatization tests).
	BodySum map[*region.Region]*Tuple
	// Ctx describes each loop's index variable, bound exactness and variant
	// names.
	Ctx map[*region.Region]*symbolic.LoopContext
	// After records, per region r and call/loop statement n directly in r,
	// the summary from the end of n to the end of r (the paper's S_{r,n}).
	After map[*region.Region]map[ir.Stmt]*Tuple
}

// ProcResult is one procedure's contribution to the whole-program analysis:
// the per-region summaries plus the projected procedure summary. It is
// produced by AnalyzeProc and folded into the Analysis by Merge.
type ProcResult struct {
	Proc      *ir.Proc
	ProcSum   *Tuple
	RegionSum map[*region.Region]*Tuple
	BodySum   map[*region.Region]*Tuple
	Ctx       map[*region.Region]*symbolic.LoopContext
	After     map[*region.Region]map[ir.Stmt]*Tuple
}

// NewAnalysis builds the shared read-only state of the bottom-up phase: the
// mod/ref summaries (computed if mr is nil) and the region graph. Common
// members are keyed by the representative the parser linked (ir.Symbol.Canon),
// so accesses from different procedures unify. Procedure results are added
// with AnalyzeProc + Merge.
func NewAnalysis(prog *ir.Program, mr *modref.Info) *Analysis {
	if mr == nil {
		mr = modref.Analyze(prog)
	}
	return &Analysis{
		Prog:      prog,
		MR:        mr,
		Reg:       region.Build(prog),
		ProcSum:   map[string]*Tuple{},
		RegionSum: map[*region.Region]*Tuple{},
		BodySum:   map[*region.Region]*Tuple{},
		Ctx:       map[*region.Region]*symbolic.LoopContext{},
		After:     map[*region.Region]map[ir.Stmt]*Tuple{},
	}
}

// Analyze runs the bottom-up array data-flow phase over the whole program,
// sequentially. The concurrent scheduler in internal/driver produces
// byte-identical results by running AnalyzeProc on a worker pool and calling
// Merge in the same bottom-up order.
func Analyze(prog *ir.Program) *Analysis {
	a := NewAnalysis(prog, nil)
	for _, p := range prog.BottomUpOrder() {
		a.Merge(a.AnalyzeProc(p, a.ProcSummary))
	}
	return a
}

// ProcSummary returns the merged procedure summary for name (nil if not yet
// merged) — the callee lookup used by the sequential driver.
func (a *Analysis) ProcSummary(name string) *Tuple { return a.ProcSum[name] }

// Clone returns an Analysis with fresh result maps sharing every merged
// per-procedure value (Tuples are immutable once merged) and the same
// read-only skeleton — program and region graph. mr,
// when non-nil, replaces the mod/ref info so the clone can track its own
// re-merged effects. Merge on the clone never disturbs the original, which
// lets the incremental driver branch a private re-analyzable copy off a
// shared cached result.
func (a *Analysis) Clone(mr *modref.Info) *Analysis {
	if mr == nil {
		mr = a.MR
	}
	out := &Analysis{
		Prog:      a.Prog,
		MR:        mr,
		Reg:       a.Reg,
		ProcSum:   make(map[string]*Tuple, len(a.ProcSum)),
		RegionSum: make(map[*region.Region]*Tuple, len(a.RegionSum)),
		BodySum:   make(map[*region.Region]*Tuple, len(a.BodySum)),
		Ctx:       make(map[*region.Region]*symbolic.LoopContext, len(a.Ctx)),
		After:     make(map[*region.Region]map[ir.Stmt]*Tuple, len(a.After)),
	}
	for k, v := range a.ProcSum {
		out.ProcSum[k] = v
	}
	for k, v := range a.RegionSum {
		out.RegionSum[k] = v
	}
	for k, v := range a.BodySum {
		out.BodySum[k] = v
	}
	for k, v := range a.Ctx {
		out.Ctx[k] = v
	}
	for k, v := range a.After {
		out.After[k] = v
	}
	return out
}

// Merge folds one procedure's result into the whole-program maps. It must
// not race with AnalyzeProc readers of ProcSum; schedulers call it either
// single-threaded (after all workers finish) or before any dependent
// procedure starts.
func (a *Analysis) Merge(r *ProcResult) {
	a.ProcSum[r.Proc.Name] = r.ProcSum
	for k, v := range r.RegionSum {
		a.RegionSum[k] = v
	}
	for k, v := range r.BodySum {
		a.BodySum[k] = v
	}
	for k, v := range r.Ctx {
		a.Ctx[k] = v
	}
	for k, v := range r.After {
		a.After[k] = v
	}
}

// Overlaps reports whether two distinct representatives may alias: both in
// the same common block with overlapping flat element ranges.
func Overlaps(x, y *ir.Symbol) bool {
	if x == y {
		return true
	}
	if x.Common == "" || x.Common != y.Common {
		return false
	}
	xl, xh := x.CommonOffset, x.CommonOffset+x.NElems()-1
	yl, yh := y.CommonOffset, y.CommonOffset+y.NElems()-1
	return xl <= yh && yl <= xh
}

type node struct {
	stmt       ir.Stmt
	tuple      *Tuple // leaf (or loop) summary; cond/bound reads for IFs
	isIf       bool
	thenN, elN []*node
}

type walker struct {
	a      *Analysis
	proc   *ir.Proc
	ev     *symbolic.Evaluator
	ctx    []*lin.System // active in-proc loop bound constraints
	res    *ProcResult
	callee func(string) *Tuple // callee summary lookup (merged results)
	fresh  int                 // per-proc fresh-name counter (deterministic)
}

// AnalyzeProc computes one procedure's summaries. It only reads the shared
// state of a (Prog, MR, Reg) plus the summaries of p's callees
// via the callee lookup; all results land in the returned ProcResult, so
// calls for independent procedures may run concurrently.
func (a *Analysis) AnalyzeProc(p *ir.Proc, callee func(string) *Tuple) *ProcResult {
	res := &ProcResult{
		Proc:      p,
		RegionSum: map[*region.Region]*Tuple{},
		BodySum:   map[*region.Region]*Tuple{},
		Ctx:       map[*region.Region]*symbolic.LoopContext{},
		After:     map[*region.Region]map[ir.Stmt]*Tuple{},
	}
	w := &walker{a: a, proc: p, ev: symbolic.NewEvaluator(a.MR, p), res: res, callee: callee}
	nodes := w.walkList(p.Body)
	top := a.Reg.ProcTop[p.Name]
	res.After[top] = map[ir.Stmt]*Tuple{}
	sum := w.composeNodes(top, nodes, NewTuple(), nil)
	res.RegionSum[top] = sum
	res.ProcSum = a.projectProc(p, sum)
	return res
}

// ---- forward walk ----

func (w *walker) walkList(stmts []ir.Stmt) []*node {
	var out []*node
	for _, s := range stmts {
		switch st := s.(type) {
		case *ir.Assign:
			out = append(out, &node{stmt: s, tuple: w.leafAssign(st)})
			if !st.Lhs.Symbol().IsArray() {
				w.ev.AssignScalar(st.Lhs.Symbol(), st.Rhs)
			}
		case *ir.If:
			out = append(out, w.walkIf(st))
		case *ir.Call:
			out = append(out, &node{stmt: s, tuple: w.leafCall(st)})
			w.ev.KillCall(st)
		case *ir.IO:
			out = append(out, &node{stmt: s, tuple: w.leafIO(st)})
			if !st.Write {
				for _, arg := range st.Args {
					if r, ok := arg.(ir.Ref); ok && !r.Symbol().IsArray() {
						w.ev.Kill(r.Symbol())
					}
				}
			}
		case *ir.DoLoop:
			out = append(out, w.walkLoop(st))
		case *ir.Continue, *ir.Return, *ir.Stop:
			// No data effects. Early RETURN inside an IF is treated as
			// fall-through (see DESIGN.md limitations).
		}
	}
	return out
}

func (w *walker) walkIf(st *ir.If) *node {
	if op, upd := ClassifyMinMaxIf(st); upd != nil {
		// IF (x .LT. t) t = x — a commutative MIN/MAX update (§6.2.2.1).
		// The condition's read of the accumulator is part of the update, so
		// it must not land in Plain (addWrite subtracts it afterwards).
		t := w.leafCommutative(upd, op, st.Cond)
		return &node{stmt: st, tuple: t}
	}
	n := &node{stmt: st, isIf: true, tuple: NewTuple()}
	addReads(n.tuple, w, st.Cond)
	evThen, evElse := w.ev.Branch()
	saved := w.ev
	w.ev = evThen
	n.thenN = w.walkList(st.Then)
	w.ev = evElse
	n.elN = w.walkList(st.Else)
	w.ev = saved
	w.ev.MergeBranches(evThen, evElse)
	return n
}

// ClassifyMinMaxIf recognizes the guarded MIN/MAX update IF (x REL t) t = x
// with REL in LT/LE (MIN) or GT/GE (MAX), including the reversed comparison.
// The walker and the static reduction census (Fig 6-2) share it.
func ClassifyMinMaxIf(st *ir.If) (op string, upd *ir.Assign) {
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
	// x REL t with t = lhs, x = rhs.
	switch {
	case ir.SameExpr(cond.R, asg.Lhs) && ir.SameExpr(cond.L, asg.Rhs):
		if cond.Op == ir.OpLT || cond.Op == ir.OpLE {
			return RedMin, asg
		}
		return RedMax, asg
	case ir.SameExpr(cond.L, asg.Lhs) && ir.SameExpr(cond.R, asg.Rhs):
		if cond.Op == ir.OpGT || cond.Op == ir.OpGE {
			return RedMin, asg
		}
		return RedMax, asg
	}
	return "", nil
}

func (w *walker) walkLoop(l *ir.DoLoop) *node {
	t := NewTuple()
	addReads(t, w, l.Lo)
	addReads(t, w, l.Hi)
	if l.Step != nil {
		addReads(t, w, l.Step)
	}

	lc, leave := w.ev.EnterLoopBody(l)
	w.ctx = append(w.ctx, lc.Bounds)
	bodyNodes := w.walkList(l.Body)
	w.ctx = w.ctx[:len(w.ctx)-1]

	lr := w.a.Reg.OfLoop[l]
	body := lr.Body()
	w.res.After[body] = map[ir.Stmt]*Tuple{}
	bodyTuple := w.composeNodes(body, bodyNodes, NewTuple(), nil)
	w.res.BodySum[body] = bodyTuple

	full := leave()
	w.res.Ctx[lr] = full

	// The §5.2.2.3 refinement subtracts strictly-earlier-iteration
	// must-writes; it is sound whenever the loop bounds are exact.
	refine := func(acc *Access) bool { return full.Exact }
	closed := CloseLoop(bodyTuple, full.IndexVar, full.Exact, full.Variant, full.Bounds, refine)

	// The DO index itself is written by the loop (before any body read, so
	// its reads are never upwards exposed outside the loop).
	idx := l.Index.Canon()
	idxAcc := closed.view(idx)
	idxAcc.M, idxAcc.E = fullScalar, lin.EmptySection(0)
	idxAcc.Plain, idxAcc.PlainW = fullScalar, fullScalar
	loopTuple := &Tuple{Arrays: maps.Clone(closed.Arrays)}
	loopTuple.Arrays[idx] = &idxAcc

	w.res.RegionSum[lr] = loopTuple
	return &node{stmt: l, tuple: Compose(t, loopTuple)}
}

// ---- leaf summaries ----

// fullScalar is the section of a scalar access: the one element of a
// 0-dimensional array. Nobody writes a section, so every scalar shares it.
var fullScalar = lin.NewSection(0, lin.NewSystem())

// addReads adds every read in expr (array elements and scalars) to t.
func addReads(t *Tuple, w *walker, expr ir.Expr) {
	ir.WalkExpr(expr, func(e ir.Expr) {
		switch x := e.(type) {
		case *ir.VarRef:
			if !x.Sym.IsArray() {
				acc := t.Get(x.Sym.Canon())
				acc.R = acc.R.Union(fullScalar)
				acc.E = acc.E.Union(fullScalar)
				acc.Plain = acc.Plain.Union(fullScalar)
			}
		case *ir.ArrayRef:
			if len(x.Idx) == 0 {
				return // bare array argument; handled at the call
			}
			sec := w.sectionOf(x)
			acc := t.Get(x.Sym.Canon())
			acc.R = acc.R.Union(sec)
			acc.E = acc.E.Union(sec)
			acc.Plain = acc.Plain.Union(sec)
		}
	})
}

// sectionOf builds the array section for one subscripted reference under the
// current symbolic environment and loop-bound context.
func (w *walker) sectionOf(x *ir.ArrayRef) *lin.Section {
	n := 2 * len(x.Idx) // two constraints per subscript, then the loop bounds
	for _, c := range w.ctx {
		n += len(c.Cons)
	}
	sys := &lin.System{Cons: make([]lin.Constraint, 0, n)}
	exact := true
	for k, idxE := range x.Idx {
		e, ok, _ := w.ev.Affine(idxE)
		if !ok {
			// Non-affine subscript: the whole declared extent may be touched.
			d := x.Sym.Dims[k]
			sys.AddRange(lin.DimVar(k), lin.NewExpr(d.Lo), lin.NewExpr(d.Hi))
			exact = false
			continue
		}
		sys.AddEq(lin.Var(lin.DimVar(k)).Sub(e))
	}
	for _, c := range w.ctx {
		sys.Conjoin(c)
	}
	return &lin.Section{NDim: len(x.Sym.Dims), Polys: []*lin.System{sys}, Exact: exact}
}

// leafAssign builds the summary of a single assignment, classifying
// commutative updates for reduction recognition.
func (w *walker) leafAssign(st *ir.Assign) *Tuple {
	if op, ok := ClassifyUpdate(st); ok {
		return w.leafCommutative(st, op)
	}
	t := NewTuple()
	// Reads: the whole RHS plus the LHS subscripts.
	addReads(t, w, st.Rhs)
	if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
		for _, ix := range ar.Idx {
			addReads(t, w, ix)
		}
	}
	w.addWrite(t, st.Lhs, false, "")
	return t
}

// leafCommutative builds the summary of a commutative update (reduction
// candidate): the self-read and write land in Red[op] rather than Plain.
// extra expressions (e.g. the MIN/MAX guard condition) are read as part of
// the update.
func (w *walker) leafCommutative(st *ir.Assign, op string, extra ...ir.Expr) *Tuple {
	t := NewTuple()
	// All reads (including the self-read: a reduction still reads its
	// previous value); addWrite then removes the self-access from Plain.
	addReads(t, w, st.Rhs)
	for _, e := range extra {
		addReads(t, w, e)
	}
	if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
		for _, ix := range ar.Idx {
			addReads(t, w, ix)
		}
	}
	w.addWrite(t, st.Lhs, true, op)
	return t
}

// addWrite records the write of lhs into t. Commutative updates additionally
// land in Red[op]; their self-read stays in R/E (a reduction still reads its
// previous value) but is removed from Plain, since only non-reduction
// accesses should block reduction parallelization (§6.2.2.1 criterion 2).
func (w *walker) addWrite(t *Tuple, lhs ir.Ref, commutative bool, op string) {
	sym := lhs.Symbol().Canon()
	acc := t.Get(sym)
	var sec *lin.Section
	if ar, ok := lhs.(*ir.ArrayRef); ok {
		sec = w.sectionOf(ar)
	} else {
		sec = fullScalar
	}
	if sec.Exact {
		acc.M = acc.M.Union(sec)
	} else {
		acc.W = acc.W.Union(sec)
	}
	if commutative {
		acc.Red = redUnion(acc.Red, map[string]*lin.Section{op: sec})
		// The self-read was added to Plain by addReads; rebuild Plain
		// without the reduction region.
		acc.Plain = acc.Plain.Subtract(sec)
	} else {
		acc.Plain = acc.Plain.Union(sec)
		acc.PlainW = acc.PlainW.Union(sec)
	}
}

// ClassifyUpdate reports whether st has the form x = x op e (op commutative:
// +, * — including x = x - e as +) or x = MIN/MAX(x, e...), where e does not
// reference x's array at all. Expressions compare structurally
// (ir.SameExpr). The walker and the static reduction census (Fig 6-2)
// share it.
func ClassifyUpdate(st *ir.Assign) (string, bool) {
	self, sym := st.Lhs, st.Lhs.Symbol()
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
				if tm.pos && ir.SameExpr(tm.e, self) {
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
			if ir.SameExpr(l, self) && !referencesSym(r, sym) {
				return RedMul, true
			}
			if ir.SameExpr(r, self) && !referencesSym(l, sym) {
				return RedMul, true
			}
		}
	case *ir.Intrinsic:
		if rhs.Name == "MIN" || rhs.Name == "MAX" {
			selfCount := 0
			for _, a := range rhs.Args {
				if ir.SameExpr(a, self) {
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

type addTerm struct {
	e   ir.Expr
	pos bool
}

// addTerms flattens an additive expression tree into signed terms.
func addTerms(e ir.Expr) ([]addTerm, bool) {
	if b, ok := e.(*ir.Bin); ok && (b.Op == ir.OpAdd || b.Op == ir.OpSub) {
		lt, ok1 := addTerms(b.L)
		rt, ok2 := addTerms(b.R)
		if !ok1 || !ok2 {
			return nil, false
		}
		if b.Op == ir.OpSub {
			for i := range rt {
				rt[i].pos = !rt[i].pos
			}
		}
		return append(lt, rt...), true
	}
	return []addTerm{{e: e, pos: true}}, true
}

func referencesSym(e ir.Expr, sym *ir.Symbol) bool {
	found := false
	ir.WalkExpr(e, func(x ir.Expr) {
		switch r := x.(type) {
		case *ir.VarRef:
			if r.Sym == sym {
				found = true
			}
		case *ir.ArrayRef:
			if r.Sym == sym {
				found = true
			}
		}
	})
	return found
}

func (w *walker) leafIO(st *ir.IO) *Tuple {
	t := NewTuple()
	if st.Write {
		for _, a := range st.Args {
			addReads(t, w, a)
		}
		return t
	}
	// READ: targets are written with unknown values; subscripts are read.
	for _, a := range st.Args {
		switch r := a.(type) {
		case *ir.VarRef:
			acc := t.Get(r.Sym.Canon())
			acc.M = acc.M.Union(fullScalar)
			acc.Plain = acc.Plain.Union(fullScalar)
			acc.PlainW = acc.PlainW.Union(fullScalar)
		case *ir.ArrayRef:
			for _, ix := range r.Idx {
				addReads(t, w, ix)
			}
			sec := w.sectionOf(r)
			acc := t.Get(r.Sym.Canon())
			if sec.Exact {
				acc.M = acc.M.Union(sec)
			} else {
				acc.W = acc.W.Union(sec)
			}
			acc.Plain = acc.Plain.Union(sec)
			acc.PlainW = acc.PlainW.Union(sec)
		default:
			addReads(t, w, a)
		}
	}
	return t
}

// ---- backward composition ----

// composeNodes composes the node list, last statement first, in front of v,
// which it owns from here on, and returns the summary of the list followed
// by what v held, recording After[r][stmt] (the paper's S_{r,n}) for loops
// and calls. Each statement is composed into v in place (Tuple.prepend);
// dirty holds the symbols of the statement composed into v last, the only
// records besides the statement's own that T may still change. After
// entries and the THEN arm get snapshots; the ELSE arm takes v over, and the
// meet of the two arms, none of whose records T is known to leave alone, is
// the tuple the statements before the IF are composed into.
func (w *walker) composeNodes(r *region.Region, nodes []*node, v *Tuple, dirty map[*ir.Symbol]*Access) *Tuple {
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		switch n.stmt.(type) {
		case *ir.Call, *ir.DoLoop:
			w.res.After[r][n.stmt] = v.snapshot()
		}
		if n.isIf {
			vt := w.composeNodes(r, n.thenN, v.snapshot(), dirty)
			ve := w.composeNodes(r, n.elN, v, dirty)
			v = Meet(vt, ve)
			dirty = v.Arrays
		}
		v.prepend(n.tuple, dirty)
		dirty = n.tuple.Arrays
	}
	return v
}

// ---- procedure boundary ----

// projectProc eliminates callee-local names from a procedure summary: local
// scalar entry names, fresh unknowns, and local (non-param, non-common)
// array keys disappear; what remains is expressed over formal parameter and
// common-block names only.
func (a *Analysis) projectProc(p *ir.Proc, sum *Tuple) *Tuple {
	local := map[string]bool{}
	for _, s := range p.Syms {
		if !s.IsParam && s.Common == "" && !s.IsArray() {
			local[s.Name] = true
		}
	}
	drop := func(v string) bool {
		if lin.IsDimVar(v) {
			return false
		}
		if strings.HasPrefix(v, "%") || strings.HasPrefix(v, "&") || strings.HasPrefix(v, "@") {
			return true
		}
		return local[v]
	}
	out := NewTuple()
	for sym, acc := range sum.Arrays {
		if !sym.IsParam && sym.Common == "" {
			continue // local storage is invisible to callers
		}
		out.Arrays[sym] = acc
	}
	return out.ProjectSyms(drop)
}

// CountReductionStatements statically counts commutative-update statements
// per operator across a whole program — the Fig 6-2 census. Scalar and
// array updates are tallied separately ("+ scalar", "+ array", ...).
func CountReductionStatements(prog *ir.Program) map[string]int {
	out := map[string]int{}
	tally := func(op string, lhs ir.Ref) {
		kind := " scalar"
		if lhs.Symbol().IsArray() {
			kind = " array"
		}
		out[op+kind]++
	}
	for _, p := range prog.Procs {
		ir.WalkStmts(p.Body, func(s ir.Stmt) bool {
			switch st := s.(type) {
			case *ir.Assign:
				if op, ok := ClassifyUpdate(st); ok {
					tally(op, st.Lhs)
				}
			case *ir.If:
				if op, upd := ClassifyMinMaxIf(st); upd != nil {
					tally(op, upd.Lhs)
					return false // don't double count the inner assign
				}
			}
			return true
		})
	}
	return out
}
