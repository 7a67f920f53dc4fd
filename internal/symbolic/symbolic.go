// Package symbolic implements the scalar symbolic analysis of §2.4: it finds
// loop invariants and induction relationships, propagates constants, and
// determines affine relationships between scalar variables, so that array
// subscripts and loop bounds can be expressed as affine (lin.Expr) functions
// of loop indices and symbolic constants.
//
// The Evaluator is driven in program order by the array data-flow pass: it
// maintains, per scalar, the current value as an affine expression over
//   - enclosing loop index variables (named by their symbol name),
//   - entry values of invariant scalars (named by their symbol name), and
//   - opaque fresh unknowns ("%NAME.k") for values it cannot express.
//
// Unknowns created inside a loop body are loop-variant: an array section
// whose subscript depends on one cannot be treated as the same location on
// every iteration, which the summary pass uses to degrade must-write
// sections (the paper's precision/conservativeness rule in §5.2.1).
package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"suifx/internal/ir"
	"suifx/internal/lin"
	"suifx/internal/modref"
)

// VariantPrefix marks fresh loop-variant unknown variable names.
const VariantPrefix = "%"

// IsVariantVar reports whether a symbolic variable name denotes a
// loop-variant unknown.
func IsVariantVar(v string) bool { return strings.HasPrefix(v, VariantPrefix) }

type binding struct {
	e       lin.Expr
	variant bool // value may differ between iterations of some live loop
}

// Evaluator tracks scalar values through a program-order walk.
type Evaluator struct {
	MR    *modref.Info
	Proc  *ir.Proc
	env   map[*ir.Symbol]binding
	fresh *int
	depth int // current loop nesting depth
	// varsOfDepth records, per depth, the variant names created there so a
	// loop closure can project exactly those.
	created map[int][]string
}

// NewEvaluator returns a fresh evaluator at procedure entry: every scalar is
// bound to its own (invariant) entry name.
func NewEvaluator(mr *modref.Info, proc *ir.Proc) *Evaluator {
	c := 0
	return &Evaluator{
		MR: mr, Proc: proc,
		env:     map[*ir.Symbol]binding{},
		fresh:   &c,
		created: map[int][]string{},
	}
}

func (ev *Evaluator) clone() *Evaluator {
	out := &Evaluator{MR: ev.MR, Proc: ev.Proc, fresh: ev.fresh, depth: ev.depth, created: ev.created}
	out.env = make(map[*ir.Symbol]binding, len(ev.env))
	for k, v := range ev.env {
		out.env[k] = v
	}
	return out
}

// lookup returns the current value of a scalar, lazily binding unseen
// scalars to their entry names (invariant).
func (ev *Evaluator) lookup(sym *ir.Symbol) binding {
	if b, ok := ev.env[sym]; ok {
		return b
	}
	b := binding{e: lin.Var(sym.Name)}
	ev.env[sym] = b
	return b
}

// freshName mints an opaque unknown for sym; it is variant when created at
// loop depth > 0.
func (ev *Evaluator) freshName(sym *ir.Symbol) binding {
	*ev.fresh++
	variant := ev.depth > 0
	name := fmt.Sprintf("%s.%d", sym.Name, *ev.fresh)
	if variant {
		name = VariantPrefix + name
		ev.created[ev.depth] = append(ev.created[ev.depth], name)
	} else {
		name = "&" + name
	}
	return binding{e: lin.Var(name), variant: variant}
}

// Affine converts an IR expression to an affine lin.Expr under the current
// environment. ok is false for non-affine expressions (products of
// variables, divisions, array loads, intrinsics). variant reports whether
// the result depends on a loop-variant unknown.
func (ev *Evaluator) Affine(e ir.Expr) (out lin.Expr, ok, variant bool) {
	switch x := e.(type) {
	case *ir.Const:
		if x.Val != float64(int64(x.Val)) {
			return lin.Expr{}, false, false
		}
		return lin.NewExpr(int64(x.Val)), true, false
	case *ir.VarRef:
		if x.Sym.IsArray() {
			return lin.Expr{}, false, false
		}
		b := ev.lookup(x.Sym)
		return b.e, true, b.variant || exprHasVariant(b.e)
	case *ir.Un:
		if x.Op != "-" {
			return lin.Expr{}, false, false
		}
		v, ok, vr := ev.Affine(x.X)
		if !ok {
			return lin.Expr{}, false, false
		}
		return v.Scale(-1), true, vr
	case *ir.Bin:
		switch x.Op {
		case ir.OpAdd, ir.OpSub:
			l, ok1, v1 := ev.Affine(x.L)
			r, ok2, v2 := ev.Affine(x.R)
			if !ok1 || !ok2 {
				return lin.Expr{}, false, false
			}
			if x.Op == ir.OpAdd {
				return l.Add(r), true, v1 || v2
			}
			return l.Sub(r), true, v1 || v2
		case ir.OpMul:
			l, ok1, v1 := ev.Affine(x.L)
			r, ok2, v2 := ev.Affine(x.R)
			if !ok1 || !ok2 {
				return lin.Expr{}, false, false
			}
			if l.IsConst() {
				return r.Scale(l.Const), true, v2
			}
			if r.IsConst() {
				return l.Scale(r.Const), true, v1
			}
			return lin.Expr{}, false, false
		}
	}
	return lin.Expr{}, false, false
}

func exprHasVariant(e lin.Expr) bool {
	for _, v := range e.Vars() {
		if IsVariantVar(v) {
			return true
		}
	}
	return false
}

// ExprHasVariant reports whether an affine expression references any
// loop-variant unknown.
func ExprHasVariant(e lin.Expr) bool { return exprHasVariant(e) }

// AssignScalar records the assignment sym = rhs.
func (ev *Evaluator) AssignScalar(sym *ir.Symbol, rhs ir.Expr) {
	if sym.IsArray() {
		return
	}
	if v, ok, variant := ev.Affine(rhs); ok {
		ev.env[sym] = binding{e: v, variant: variant}
		return
	}
	ev.env[sym] = ev.freshName(sym)
}

// Kill invalidates a scalar's value (e.g. it was modified by a call or READ).
func (ev *Evaluator) Kill(sym *ir.Symbol) {
	if sym.IsArray() {
		return
	}
	ev.env[sym] = ev.freshName(sym)
}

// KillCall invalidates every scalar the call may modify.
func (ev *Evaluator) KillCall(c *ir.Call) {
	for _, sym := range ev.MR.CallMods(ev.Proc, c) {
		ev.Kill(sym)
	}
}

// LoopContext describes one loop's index constraints for section building.
type LoopContext struct {
	IndexVar string      // symbolic name of the loop index
	Bounds   *lin.System // constraints on IndexVar (may be partial)
	Exact    bool        // both bounds affine and |step| == 1
	Variant  []string    // variant unknown names minted inside this body
}

// EnterLoopBody prepares the evaluator for a walk over the loop body:
// scalars modified anywhere in the body become variant unknowns (their
// iteration-entry values are unknown), and the index variable is bound to
// its own name with bound constraints. Call the returned leave function
// after the body walk (it kills the index and returns the loop's context,
// now including all variant names minted in the body).
func (ev *Evaluator) EnterLoopBody(l *ir.DoLoop) (lc *LoopContext, leave func() *LoopContext) {
	ev.depth++
	ev.created[ev.depth] = nil

	killed := ev.MR.ModifiedScalars(ev.Proc, l.Body)
	lo, okLo, vLo := ev.Affine(l.Lo)
	hi, okHi, vHi := ev.Affine(l.Hi)
	step := int64(1)
	okStep := true
	if l.Step != nil {
		if s, ok, sv := ev.Affine(l.Step); ok && !sv && s.IsConst() && s.Const != 0 {
			step = s.Const
		} else {
			okStep = false
		}
	}
	// Sorted order: Kill mints numbered fresh names, so iteration order must
	// be deterministic for reproducible summaries.
	for _, sym := range sortSymSet(killed) {
		if sym != l.Index {
			ev.Kill(sym)
		}
	}
	idx := l.Index.Name
	ev.env[l.Index] = binding{e: lin.Var(idx)}

	// Bounds that reference loop-variant unknowns are still exact within one
	// iteration of the loop that minted them; the variant names are dropped
	// when that outer loop closes.
	_, _ = vLo, vHi
	sys := lin.NewSystem()
	exact := okLo && okHi && okStep && (step == 1 || step == -1)
	if step < 0 {
		lo, hi = hi, lo
		okLo, okHi = okHi, okLo
	}
	if okLo {
		sys.AddGE(lin.Var(idx).Sub(lo)) // idx >= lo
	}
	if okHi {
		sys.AddGE(hi.Sub(lin.Var(idx))) // idx <= hi
	}
	lc = &LoopContext{IndexVar: idx, Bounds: sys, Exact: exact}

	depth := ev.depth
	leave = func() *LoopContext {
		lc.Variant = ev.created[depth]
		delete(ev.created, depth)
		ev.depth--
		ev.Kill(l.Index) // Fortran leaves the index at an implementation value
		return lc
	}
	return lc, leave
}

// Branch returns two child evaluators for the arms of an IF. MergeBranches
// folds them back: bindings that agree survive, others become fresh.
func (ev *Evaluator) Branch() (*Evaluator, *Evaluator) { return ev.clone(), ev.clone() }

// MergeBranches merges the post-states of two IF arms back into ev.
func (ev *Evaluator) MergeBranches(a, b *Evaluator) {
	syms := map[*ir.Symbol]bool{}
	for s := range a.env {
		syms[s] = true
	}
	for s := range b.env {
		syms[s] = true
	}
	// Sorted order: disagreeing bindings mint numbered fresh names.
	for _, s := range sortSymSet(syms) {
		ba, oka := a.env[s]
		bb, okb := b.env[s]
		switch {
		case oka && okb && ba.e.Equal(bb.e):
			ev.env[s] = binding{e: ba.e, variant: ba.variant || bb.variant}
		case !oka && !okb:
			// untouched
		default:
			ev.env[s] = ev.freshName(s)
		}
	}
}

// sortSymSet returns the set's symbols ordered by name (names are unique
// within a procedure's scope).
func sortSymSet(set map[*ir.Symbol]bool) []*ir.Symbol {
	out := make([]*ir.Symbol, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value returns the current affine value of a scalar.
func (ev *Evaluator) Value(sym *ir.Symbol) lin.Expr { return ev.lookup(sym).e }

// ConstValue returns the scalar's value if currently a known constant.
func (ev *Evaluator) ConstValue(sym *ir.Symbol) (int64, bool) {
	b := ev.lookup(sym)
	if b.e.IsConst() {
		return b.e.Const, true
	}
	return 0, false
}
