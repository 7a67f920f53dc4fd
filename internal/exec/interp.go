// Package exec executes MiniF programs with two engines — a
// compile-then-run bytecode VM (the engine every caller gets) and the
// original tree-walking interpreter, kept strictly as the differential
// oracle — over a flat memory arena, with instrumentation that implements
// the paper's Execution Analyzers (§2.5): the Loop Profile Analyzer and the
// Dynamic Dependence Analyzer. Both engines share a deterministic
// virtual-time (operation count) clock the machine cost models consume,
// and produce byte-identical results.
package exec

import (
	"fmt"
	"io"
	"math"

	"suifx/internal/ir"
)

// ExecMode is the library-level oracle switch: ModeTree runs the
// tree-walker, every other value runs the VM.
type ExecMode int

const (
	// ModeAuto (the zero value) runs the VM: the program is lowered once
	// and fused to fixpoint (DESIGN.md "The VM"), and the flat stream
	// executes approved parallel loops on per-worker views.
	ModeAuto ExecMode = iota
	// Compat shim: ModeBytecode, ModeTiered and ModeRegister are synonyms
	// of ModeAuto, kept with their old String() names only because
	// benchmark/ compiles against them; they go when its per-tier sidecar
	// rows do.
	ModeBytecode
	// ModeTree forces the tree-walking interpreter (differential oracle).
	ModeTree
	ModeTiered   // compat shim, see ModeBytecode
	ModeRegister // compat shim, see ModeBytecode
)

func (m ExecMode) String() string {
	switch m {
	case ModeBytecode:
		return "bytecode"
	case ModeTree:
		return "tree"
	case ModeTiered:
		return "tiered"
	case ModeRegister:
		return "register"
	}
	return "auto"
}

// Ref is a variable binding in a frame: a base address in the arena plus
// the declared dimensions (nil for scalars). Subarray arguments bind with a
// shifted base (Fortran sequence association).
type Ref struct {
	Base int64
	Dims []ir.Dim
}

// hooks intercept the tree-walker's execution events; attached analyzers
// chain themselves in (see analyzer.install). Any hook may be nil.
type hooks struct {
	OnLoopEnter func(proc string, l *ir.DoLoop)
	OnLoopIter  func(proc string, l *ir.DoLoop, iter int64)
	OnLoopExit  func(proc string, l *ir.DoLoop)
	OnRead      func(addr int64, proc string, s ir.Stmt)
	OnWrite     func(addr int64, proc string, s ir.Stmt)
}

// Interp executes one program instance.
type Interp struct {
	Prog  *ir.Program
	Out   io.Writer
	hooks hooks

	// Mode selects the engine: ModeTree is the tree-walker, anything else
	// the VM. Both engines execute parallel plans.
	Mode ExecMode

	arena []float64
	// base maps storage roots: canonical common members and static locals.
	// Shared read-only with every interpreter over the same program.
	base     map[*ir.Symbol]int64
	blockOff map[string]int64
	ops      int64
	tempBase int64
	tempTop  int64
	// tempLimit bounds the scratch region: the main interpreter owns
	// [tempBase, tempLimit); parallel workers get disjoint blocks appended
	// after the static layout so concurrent value-argument spills never
	// collide.
	tempLimit int64

	// analyzers are attached by NewProfiler/NewDynDep. The tree engine
	// installs them as hook chains; the VM drives them natively.
	analyzers []analyzer

	// MaxOps aborts runaway executions (0 = unlimited).
	MaxOps int64

	// pcCount, when non-nil, receives per-pc dynamic execution counts of
	// the stream passed to runCode (census runs only); it needs one cell
	// more than the stream has instructions.
	pcCount []int64

	// Parallel execution state (see parallel.go): the plan and its runtime
	// (every planned loop's banks, plus the VM's views of them once a VM run
	// has compiled them).
	plan   *ParallelPlan
	planRT *planRT
	// workerTemp holds each worker's private scratch-block base.
	workerTemp []int64
	// bank, set only in the oracle's worker clones, is the storage binding
	// refOf resolves through before the static layout.
	bank *bank
	// parStats accumulates the per-planned-loop virtual-time profile
	// (invocations, per-worker ops, critical path); see ParallelStats.
	parStats map[*ir.DoLoop]*ParLoopStat
}

// analyzer is an execution analyzer (Profiler or DynDep) attached to an
// interpreter. install wires it into the tree-walker's hook chain; the
// bytecode engine recognizes the concrete types and drives them natively.
type analyzer interface {
	install(in *Interp)
}

// MaxArenaCells caps one interpreter's storage, per-worker banks included:
// the arena is sized by declared dimensions, so uncapped, a one-line
// REAL A(100000,100000) asks for 80 GB. The repo's largest is 450,896 cells.
const MaxArenaCells = 1 << 24

// ErrArenaTooLarge is what Run and RunProc return, with nothing allocated,
// for a program whose storage would exceed MaxArenaCells.
var ErrArenaTooLarge = fmt.Errorf("exec: program storage exceeds %d cells", MaxArenaCells)

// New allocates an interpreter with all static storage (commons and
// locals). The arena layout is computed once per program and shared.
func New(prog *ir.Program) *Interp {
	in := newInterp(prog)
	in.allocArena(in.tempLimit) // the end of the static layout
	return in
}

// newInterp is New short of allocating the arena.
func newInterp(prog *ir.Program) *Interp {
	lay := loweredOf(prog).lay
	return &Interp{
		Prog:      prog,
		Out:       io.Discard,
		base:      lay.base,
		blockOff:  lay.blockOff,
		tempBase:  lay.tempBase,
		tempTop:   lay.tempBase,
		tempLimit: lay.size,
	}
}

// allocArena allocates the storage unless it is over the cap: the arena
// then stays nil and Run refuses.
func (in *Interp) allocArena(cells int64) {
	if cells <= MaxArenaCells {
		in.arena = make([]float64, cells)
	}
}

// Ops returns the virtual-time counter (operations executed so far).
func (in *Interp) Ops() int64 { return in.ops }

// Arena exposes the memory image (for validating parallel execution).
func (in *Interp) Arena() []float64 { return in.arena }

// ArenaSize returns the number of storage cells.
func (in *Interp) ArenaSize() int { return len(in.arena) }

// ScratchBase returns the arena offset where call-argument scratch begins.
// Cells at and beyond it are dead between statements, so validation against
// another run must not compare them: parallel workers spill into their own
// scratch blocks and leave the base region untouched.
func (in *Interp) ScratchBase() int64 { return in.tempBase }

// frame binds a procedure's symbols to storage.
type frame struct {
	proc *ir.Proc
	refs map[*ir.Symbol]Ref
}

func (in *Interp) refOf(f *frame, sym *ir.Symbol) Ref {
	if r, ok := f.refs[sym]; ok {
		return r
	}
	base, ok := in.bank.addr(sym)
	if !ok {
		base = in.staticBase(sym)
	}
	r := Ref{Base: base, Dims: sym.Dims}
	f.refs[sym] = r
	return r
}

// staticBase is a common member's or local's address in the static layout.
func (in *Interp) staticBase(sym *ir.Symbol) int64 {
	if sym.Common != "" {
		return in.blockOff[sym.Common] + sym.CommonOffset
	}
	return in.base[sym]
}

// Run executes the program from its PROGRAM unit.
func (in *Interp) Run() error {
	if in.arena == nil {
		return ErrArenaTooLarge
	}
	main := in.Prog.Main()
	if main == nil {
		return fmt.Errorf("exec: no main program")
	}
	if in.useBytecode() {
		return in.runBytecode()
	}
	counters.treeRuns.Add(1)
	in.installAnalyzers()
	f := &frame{proc: main, refs: map[*ir.Symbol]Ref{}}
	_, err := in.execStmts(f, main.Body)
	return err
}

// useBytecode decides the engine for this run: the VM unless the mode is
// ModeTree or an analyzer combination the VM cannot drive (duplicates of
// one kind) is attached. Every tree-walker run is attributed to its cause
// in the engine counters so a plan that unexpectedly runs off the VM is
// visible.
func (in *Interp) useBytecode() bool {
	if in.Mode == ModeTree {
		counters.fallbackMode.Add(1)
		return false
	}
	np, nd := 0, 0
	for _, a := range in.analyzers {
		switch a.(type) {
		case *Profiler:
			np++
		case *DynDep:
			nd++
		}
	}
	if np > 1 || nd > 1 {
		counters.fallbackAnalyzers.Add(1)
		return false
	}
	return true
}

// installAnalyzers chains the attached analyzers into the hook fields for
// tree-walking execution (idempotent).
func (in *Interp) installAnalyzers() {
	for _, a := range in.analyzers {
		a.install(in)
	}
}

// runBytecode executes the program's cached compiled stream.
func (in *Interp) runBytecode() error {
	_, dyn := in.attached()
	return in.runCode(loweredOf(in.Prog).codeFor(in.Prog, dyn != nil))
}

// attached returns the analyzers the VM drives natively (nil when absent).
func (in *Interp) attached() (prof *Profiler, dyn *DynDep) {
	for _, a := range in.analyzers {
		switch x := a.(type) {
		case *Profiler:
			prof = x
		case *DynDep:
			dyn = x
		}
	}
	return prof, dyn
}

// runCode executes one compiled stream of in.Prog, then folds the analyzer
// results back into the attached Profiler/DynDep so their public APIs
// answer identically to a tree run.
func (in *Interp) runCode(cd *code) error {
	prof, dyn := in.attached()
	low := loweredOf(in.Prog)
	counters.bytecodeRuns.Add(1)

	sc, _ := low.vmPool.Get().(*vmScratch)
	if sc == nil {
		sc = &vmScratch{}
	}
	sc.prepare(cd)

	v := &vm{
		cd:         cd,
		mem:        in.arena,
		out:        in.Out,
		stack:      sc.stack,
		paramStore: sc.paramStore,
		frames:     sc.frames,
		loopActs:   sc.loopActs,
		tempTop:    in.tempTop,
		tempLimit:  in.tempLimit,
		ops:        in.ops,
		maxOps:     in.MaxOps,
		pcCount:    in.pcCount,
	}
	if v.maxOps <= 0 {
		v.maxOps = math.MaxInt64
	}
	if in.plan != nil {
		v.par = in.ensurePlanRT(cd)
	}
	if prof != nil {
		v.prof = &profState{inv: sc.profInv, iters: sc.profIters, tops: sc.profOps, stack: sc.profStack}
	}
	if dyn != nil {
		st, _ := low.ddaPool.Get().(*ddaState)
		if st == nil {
			st = &ddaState{}
		}
		st.begin(dyn, cd, len(in.arena))
		v.dda = st
	}
	v.events = v.prof != nil || v.dda != nil

	err := v.run()
	in.ops = v.ops
	counters.instructions.Add(v.instr)

	if prof != nil {
		prof.absorb(cd, v.prof)
	}
	if v.dda != nil {
		v.dda.end()
		low.ddaPool.Put(v.dda)
	}
	// Return the (possibly grown) scratch slices to the pool.
	sc.stack = v.stack
	sc.paramStore = v.paramStore
	sc.frames = v.frames
	sc.loopActs = v.loopActs
	if v.prof != nil {
		sc.profStack = v.prof.stack
	}
	low.vmPool.Put(sc)
	return err
}

// RunProc invokes one subroutine with pre-bound argument refs (used by the
// parallel runtime).
func (in *Interp) RunProc(p *ir.Proc, refs map[*ir.Symbol]Ref) error {
	if in.arena == nil {
		return ErrArenaTooLarge
	}
	f := &frame{proc: p, refs: refs}
	_, err := in.execStmts(f, p.Body)
	return err
}

type signal int

const (
	sigNone signal = iota
	sigReturn
	sigStop
)

func (in *Interp) tick(n int64) error {
	in.ops += n
	if in.MaxOps > 0 && in.ops > in.MaxOps {
		return fmt.Errorf("exec: operation budget exceeded (%d)", in.MaxOps)
	}
	return nil
}

func (in *Interp) execStmts(f *frame, stmts []ir.Stmt) (signal, error) {
	for _, s := range stmts {
		sig, err := in.execStmt(f, s)
		if err != nil || sig != sigNone {
			return sig, err
		}
	}
	return sigNone, nil
}

func (in *Interp) execStmt(f *frame, s ir.Stmt) (signal, error) {
	if err := in.tick(1); err != nil {
		return sigNone, err
	}
	switch st := s.(type) {
	case *ir.Assign:
		v, err := in.eval(f, st.Rhs, s)
		if err != nil {
			return sigNone, err
		}
		return sigNone, in.store(f, st.Lhs, v, s)
	case *ir.If:
		c, err := in.eval(f, st.Cond, s)
		if err != nil {
			return sigNone, err
		}
		if c != 0 {
			return in.execStmts(f, st.Then)
		}
		return in.execStmts(f, st.Else)
	case *ir.DoLoop:
		return in.execLoop(f, st)
	case *ir.Call:
		return sigNone, in.execCall(f, st)
	case *ir.IO:
		return sigNone, in.execIO(f, st)
	case *ir.Continue:
		return sigNone, nil
	case *ir.Return:
		return sigReturn, nil
	case *ir.Stop:
		return sigStop, nil
	}
	return sigNone, fmt.Errorf("exec: unknown statement %T", s)
}

func (in *Interp) execLoop(f *frame, l *ir.DoLoop) (signal, error) {
	lo, err := in.eval(f, l.Lo, l)
	if err != nil {
		return sigNone, err
	}
	hi, err := in.eval(f, l.Hi, l)
	if err != nil {
		return sigNone, err
	}
	step := 1.0
	if l.Step != nil {
		step, err = in.eval(f, l.Step, l)
		if err != nil {
			return sigNone, err
		}
		if step == 0 {
			return sigNone, fmt.Errorf("exec: line %d: zero DO step", l.Pos.Line)
		}
	}
	idx := in.refOf(f, l.Index)
	trips := tripCount(lo, hi, step)
	if h := in.hooks.OnLoopEnter; h != nil {
		h(f.proc.Name, l)
	}
	if lrt := in.planFor(l); lrt != nil {
		err := in.execParallelLoop(f, lrt, lo, step, trips)
		in.arena[idx.Base] = lo + float64(trips)*step
		if h := in.hooks.OnLoopExit; h != nil {
			h(f.proc.Name, l)
		}
		return sigNone, err
	}
	v := lo
	for it := int64(0); it < trips; it++ {
		in.arena[idx.Base] = v
		if h := in.hooks.OnLoopIter; h != nil {
			h(f.proc.Name, l, it)
		}
		sig, err := in.execStmts(f, l.Body)
		if err != nil || sig != sigNone {
			if h := in.hooks.OnLoopExit; h != nil {
				h(f.proc.Name, l)
			}
			return sig, err
		}
		v += step
	}
	in.arena[idx.Base] = v // Fortran leaves the index past the bound
	if h := in.hooks.OnLoopExit; h != nil {
		h(f.proc.Name, l)
	}
	return sigNone, nil
}

// tripCount computes a DO loop's trip count: floor((hi-lo+step)/step) with
// a tolerance that is relative to the trip count and symmetric in the sign
// of step, so fractional steps whose accumulated representation error
// approaches the bound from either side (positive or negative stride) are
// not truncated one iteration short. Both engines share this one formula.
func tripCount(lo, hi, step float64) int64 {
	r := (hi - lo + step) / step
	t := int64(math.Floor(r + 1e-9*math.Max(1, math.Abs(r))))
	if t < 0 {
		return 0
	}
	return t
}

func (in *Interp) execCall(f *frame, c *ir.Call) error {
	callee := in.Prog.ByName[c.Name]
	refs := map[*ir.Symbol]Ref{}
	savedTop := in.tempTop
	defer func() { in.tempTop = savedTop }()
	for i, formal := range callee.Params {
		arg := c.Args[i]
		switch x := arg.(type) {
		case *ir.VarRef:
			r := in.refOf(f, x.Sym)
			refs[formal] = Ref{Base: r.Base, Dims: formal.Dims}
		case *ir.ArrayRef:
			r := in.refOf(f, x.Sym)
			base := r.Base
			if len(x.Idx) > 0 {
				off, err := in.elemOffset(f, x, c)
				if err != nil {
					return err
				}
				base = r.Base + off
			}
			refs[formal] = Ref{Base: base, Dims: formal.Dims}
		default:
			// Value argument: evaluate into a scratch cell.
			v, err := in.eval(f, arg, c)
			if err != nil {
				return err
			}
			if in.tempTop >= in.tempLimit {
				return fmt.Errorf("exec: line %d: temporary stack overflow", c.Pos.Line)
			}
			in.arena[in.tempTop] = v
			refs[formal] = Ref{Base: in.tempTop}
			in.tempTop++
		}
	}
	nf := &frame{proc: callee, refs: refs}
	_, err := in.execStmts(nf, callee.Body)
	return err
}

func (in *Interp) execIO(f *frame, st *ir.IO) error {
	if st.Write {
		vals := make([]interface{}, 0, len(st.Args))
		for _, a := range st.Args {
			v, err := in.eval(f, a, st)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		fmt.Fprintln(in.Out, vals...)
		return nil
	}
	// READ: deterministic pseudo-input (zero); real inputs come from
	// workload initialization code instead.
	for _, a := range st.Args {
		if r, ok := a.(ir.Ref); ok {
			if err := in.store(f, r, 0, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// elemOffset computes the flat element offset of an array reference from
// the array's base (column-major, honoring declared lower bounds).
func (in *Interp) elemOffset(f *frame, ar *ir.ArrayRef, s ir.Stmt) (int64, error) {
	r := in.refOf(f, ar.Sym)
	dims := r.Dims
	if len(dims) == 0 {
		dims = ar.Sym.Dims
	}
	if len(ar.Idx) != len(dims) {
		return 0, fmt.Errorf("exec: line %d: %s subscripted with %d of %d dims",
			s.Position().Line, ar.Sym.Name, len(ar.Idx), len(dims))
	}
	off := int64(0)
	stride := int64(1)
	for d, ix := range ar.Idx {
		v, err := in.eval(f, ix, s)
		if err != nil {
			return 0, err
		}
		iv := int64(math.Round(v))
		if iv < dims[d].Lo || iv > dims[d].Hi {
			return 0, fmt.Errorf("exec: line %d: index %d out of bounds %d:%d for %s dim %d",
				s.Position().Line, iv, dims[d].Lo, dims[d].Hi, ar.Sym.Name, d+1)
		}
		off += (iv - dims[d].Lo) * stride
		stride *= dims[d].Size()
	}
	return off, nil
}

func (in *Interp) load(f *frame, e ir.Expr, s ir.Stmt) (float64, error) {
	switch x := e.(type) {
	case *ir.VarRef:
		r := in.refOf(f, x.Sym)
		if h := in.hooks.OnRead; h != nil {
			h(r.Base, f.proc.Name, s)
		}
		return in.arena[r.Base], nil
	case *ir.ArrayRef:
		off, err := in.elemOffset(f, x, s)
		if err != nil {
			return 0, err
		}
		r := in.refOf(f, x.Sym)
		if h := in.hooks.OnRead; h != nil {
			h(r.Base+off, f.proc.Name, s)
		}
		return in.arena[r.Base+off], nil
	}
	return 0, fmt.Errorf("exec: not a reference: %v", e)
}

func (in *Interp) store(f *frame, ref ir.Ref, v float64, s ir.Stmt) error {
	switch x := ref.(type) {
	case *ir.VarRef:
		r := in.refOf(f, x.Sym)
		if h := in.hooks.OnWrite; h != nil {
			h(r.Base, f.proc.Name, s)
		}
		in.arena[r.Base] = v
		return nil
	case *ir.ArrayRef:
		off, err := in.elemOffset(f, x, s)
		if err != nil {
			return err
		}
		r := in.refOf(f, x.Sym)
		if h := in.hooks.OnWrite; h != nil {
			h(r.Base+off, f.proc.Name, s)
		}
		in.arena[r.Base+off] = v
		return nil
	}
	return fmt.Errorf("exec: unassignable reference %v", ref)
}

func (in *Interp) eval(f *frame, e ir.Expr, s ir.Stmt) (float64, error) {
	if err := in.tick(1); err != nil {
		return 0, err
	}
	switch x := e.(type) {
	case *ir.Const:
		return x.Val, nil
	case *ir.VarRef, *ir.ArrayRef:
		return in.load(f, e, s)
	case *ir.Un:
		v, err := in.eval(f, x.X, s)
		if err != nil {
			return 0, err
		}
		if x.Op == "-" {
			return -v, nil
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *ir.Bin:
		l, err := in.eval(f, x.L, s)
		if err != nil {
			return 0, err
		}
		// Short-circuit logicals.
		switch x.Op {
		case ir.OpAnd:
			if l == 0 {
				return 0, nil
			}
		case ir.OpOr:
			if l != 0 {
				return 1, nil
			}
		}
		r, err := in.eval(f, x.R, s)
		if err != nil {
			return 0, err
		}
		return applyBin(x.Op, l, r, x.Pos.Line)
	case *ir.Intrinsic:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(f, a, s)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return applyIntrinsic(x.Name, args)
	}
	return 0, fmt.Errorf("exec: cannot evaluate %T", e)
}

func applyBin(op ir.BinOp, l, r float64, line int) (float64, error) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.OpAdd:
		return l + r, nil
	case ir.OpSub:
		return l - r, nil
	case ir.OpMul:
		return l * r, nil
	case ir.OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("exec: line %d: division by zero", line)
		}
		return l / r, nil
	case ir.OpEQ:
		return b2f(l == r), nil
	case ir.OpNE:
		return b2f(l != r), nil
	case ir.OpLT:
		return b2f(l < r), nil
	case ir.OpLE:
		return b2f(l <= r), nil
	case ir.OpGT:
		return b2f(l > r), nil
	case ir.OpGE:
		return b2f(l >= r), nil
	case ir.OpAnd:
		return b2f(l != 0 && r != 0), nil
	case ir.OpOr:
		return b2f(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("exec: bad operator %v", op)
}

func applyIntrinsic(name string, args []float64) (float64, error) {
	switch name {
	case "MIN":
		v := args[0]
		for _, a := range args[1:] {
			if a < v {
				v = a
			}
		}
		return v, nil
	case "MAX":
		v := args[0]
		for _, a := range args[1:] {
			if a > v {
				v = a
			}
		}
		return v, nil
	case "MOD":
		return math.Mod(args[0], args[1]), nil
	case "ABS":
		return math.Abs(args[0]), nil
	case "SQRT":
		if args[0] < 0 {
			return 0, fmt.Errorf("exec: SQRT of negative value")
		}
		return math.Sqrt(args[0]), nil
	case "EXP":
		return math.Exp(args[0]), nil
	case "SIN":
		return math.Sin(args[0]), nil
	case "COS":
		return math.Cos(args[0]), nil
	case "INT":
		return math.Trunc(args[0]), nil
	case "FLOAT", "DBLE":
		return args[0], nil
	}
	return 0, fmt.Errorf("exec: unknown intrinsic %s", name)
}

// Cells returns the arena address range of a variable's static storage:
// its common block's cells for a member, its own for a local. ok is false
// for a parameter, whose storage depends on the caller.
func (in *Interp) Cells(sym *ir.Symbol) (lo, hi int64, ok bool) {
	if sym.IsParam {
		return 0, 0, false
	}
	base := in.staticBase(sym)
	return base, base + sym.NElems() - 1, true
}
