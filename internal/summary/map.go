package summary

import (
	"fmt"
	"strings"

	"suifx/internal/ir"
	"suifx/internal/lin"
)

// leafCall builds the summary of a CALL statement: reads performed by
// value-argument expressions, plus the callee's procedure summary mapped
// into the caller's space (the paper's FindSummary parameter mapping and
// array reshape, §5.2.2.1).
func (w *walker) leafCall(c *ir.Call) *Tuple {
	t := NewTuple()
	callee := w.a.Prog.ByName[c.Name]
	if callee == nil {
		return t
	}
	// Value arguments (general expressions) are read at the call; reference
	// arguments contribute their subscript reads only.
	for _, arg := range c.Args {
		switch x := arg.(type) {
		case *ir.VarRef:
			// by reference; accesses come from the mapped summary
		case *ir.ArrayRef:
			for _, ix := range x.Idx {
				addReads(t, w, ix)
			}
		default:
			addReads(t, w, arg)
		}
	}
	mapped := w.mapCall(c, callee)
	return Compose(t, mapped)
}

// mapCall maps the callee's procedure summary into the caller's name space.
// Symbols are mapped in sorted order so fresh variant names are minted
// deterministically regardless of map iteration order.
func (w *walker) mapCall(c *ir.Call, callee *ir.Proc) *Tuple {
	sum := w.callee(callee.Name)
	if sum == nil {
		return NewTuple()
	}
	m := &callMapper{w: w, c: c, callee: callee, leftover: map[string]string{}}
	out := NewTuple()
	for _, sym := range sum.SortedSyms() {
		m.mapAccess(out, sym, sum.Arrays[sym])
	}
	return out
}

type callMapper struct {
	w        *walker
	c        *ir.Call
	callee   *ir.Proc
	leftover map[string]string // callee free name -> caller variant name
}

// mapAccess maps one callee access record onto the caller tuple.
func (m *callMapper) mapAccess(out *Tuple, sym *ir.Symbol, acc *Access) {
	switch {
	case sym.IsParam:
		m.mapParamAccess(out, sym, acc)
	case sym.Common != "":
		// Canonical common keys are shared across procedures; only the
		// symbolic variables need mapping.
		target := out.Get(m.w.a.Canon(sym))
		m.mergeSections(target, acc, m.substVars)
	}
}

func (m *callMapper) mapParamAccess(out *Tuple, formal *ir.Symbol, acc *Access) {
	if formal.ParamIndex >= len(m.c.Args) {
		return
	}
	arg := m.c.Args[formal.ParamIndex]
	switch x := arg.(type) {
	case *ir.VarRef:
		// Scalar (or whole-array via scalar ref — arrays parse as ArrayRef).
		target := out.Get(m.w.a.Canon(x.Sym))
		m.mergeSections(target, acc, m.substVars)
	case *ir.ArrayRef:
		m.mapArrayArg(out, formal, acc, x)
	default:
		// Value argument: callee writes are lost (writing a temporary);
		// callee reads were already accounted as value-argument reads.
	}
}

// mapArrayArg maps a formal array's sections onto the actual array,
// handling the 1-D subarray-offset case exactly and degrading other
// reshapes to the whole actual array.
func (m *callMapper) mapArrayArg(out *Tuple, formal *ir.Symbol, acc *Access, actual *ir.ArrayRef) {
	asym := m.w.a.Canon(actual.Sym)
	target := out.Get(asym)

	sameShape := len(formal.Dims) == len(actual.Sym.Dims) && len(actual.Idx) == 0
	if sameShape {
		for i, d := range formal.Dims {
			if d != actual.Sym.Dims[i] {
				sameShape = false
				break
			}
		}
	}
	switch {
	case sameShape:
		m.mergeSections(target, acc, m.substVars)
	case len(formal.Dims) == 1 && len(actual.Sym.Dims) == 1:
		// Sequence association: element j of the formal is element
		// start + (j - formal.Lo) of the actual.
		start := lin.NewExpr(actual.Sym.Dims[0].Lo)
		if len(actual.Idx) == 1 {
			if e, ok, _ := m.w.ev.Affine(actual.Idx[0]); ok {
				start = e
			} else {
				start = lin.Var(m.fresh("start"))
			}
		}
		off := start.AddConst(-formal.Dims[0].Lo) // caller index = off + formal index
		m.mergeSections(target, acc, func(s *lin.Section) *lin.Section {
			// Callee names first: the dimension transform introduces
			// caller-side names that must not be re-minted as leftovers.
			// formal $d0 = caller $d0 - off
			return m.substVars(s).Substitute(lin.DimVar(0), lin.Var(lin.DimVar(0)).Sub(off))
		})
	default:
		// Reshape we do not model precisely: whole actual array, may-only.
		m.degrade(target, acc)
	}
}

// mergeSections maps the callee access's sections into the caller's name
// space through conv, then merges them into target.
func (m *callMapper) mergeSections(target *Access, acc *Access, conv func(*lin.Section) *lin.Section) {
	target.R = target.R.Union(conv(acc.R))
	target.E = target.E.Union(conv(acc.E))
	target.W = target.W.Union(conv(acc.W))
	target.Plain = target.Plain.Union(conv(acc.Plain))
	target.PlainW = target.PlainW.Union(conv(acc.PlainW))
	for op, s := range acc.Red {
		target.Red = redUnion(target.Red, map[string]*lin.Section{op: conv(s)})
	}
	// Must-writes survive the mapping only if no polyhedron picked up a
	// fresh variant name (substVars marks those with the % prefix; the
	// closure operator would drop them anyway, but writes of unknown
	// specific locations remain must at this call point, so keep them).
	target.M = target.M.Union(conv(acc.M))
}

// degrade adds the whole actual array as a may-access.
func (m *callMapper) degrade(target *Access, acc *Access) {
	whole := lin.WholeSection(len(target.Sym.Dims))
	if !acc.R.IsEmpty() {
		target.R = target.R.Union(whole)
		target.E = target.E.Union(whole)
	}
	if !acc.W.IsEmpty() || !acc.M.IsEmpty() {
		target.W = target.W.Union(whole)
	}
	if !acc.Plain.IsEmpty() {
		target.Plain = target.Plain.Union(whole)
		if !acc.PlainW.IsEmpty() {
			target.PlainW = target.PlainW.Union(whole)
		}
	} else {
		for op, s := range acc.Red {
			if !s.IsEmpty() {
				target.Red = redUnion(target.Red, map[string]*lin.Section{op: whole})
			}
		}
	}
}

// substVars rewrites callee symbolic names: formal scalar parameters become
// the actual argument's affine value; common-block scalars visible in the
// caller become the caller's current value; anything else becomes a fresh
// caller variant unknown.
func (m *callMapper) substVars(s *lin.Section) *lin.Section {
	out := s
	for _, v := range s.SymVars() {
		repl, ok := m.replacement(v)
		if !ok {
			continue
		}
		out = out.Substitute(v, repl)
	}
	return out
}

func (m *callMapper) replacement(v string) (lin.Expr, bool) {
	// Formal scalar parameter?
	if sym := m.callee.Syms[v]; sym != nil && sym.IsParam && !sym.IsArray() {
		arg := m.c.Args[sym.ParamIndex]
		if e, ok, _ := m.w.ev.Affine(arg); ok {
			return e, true
		}
		return lin.Var(m.fresh(v)), true
	}
	// Common scalar visible in the caller with the same storage?
	if sym := m.callee.Syms[v]; sym != nil && sym.Common != "" && !sym.IsArray() {
		for _, cs := range m.w.proc.SortedSyms() {
			if cs.Common == sym.Common && cs.CommonOffset == sym.CommonOffset && !cs.IsArray() {
				return m.w.ev.Value(cs), true
			}
		}
		return lin.Var(m.fresh(v)), true
	}
	// Loop indices and locals were projected at the procedure boundary;
	// anything left (opaque unknowns) becomes a caller variant unknown.
	if strings.HasPrefix(v, "%") || strings.HasPrefix(v, "&") || strings.HasPrefix(v, "@") {
		return lin.Var(m.fresh(v)), true
	}
	// A callee-local name that leaked (should not happen): make it opaque.
	return lin.Var(m.fresh(v)), true
}

// fresh mints (memoized per call site) a caller-side variant unknown for a
// callee name. The counter is per-procedure walker state, so minted names
// depend only on the procedure's own statement order — independent of the
// order procedures are analyzed in.
func (m *callMapper) fresh(v string) string {
	if n, ok := m.leftover[v]; ok {
		return n
	}
	m.w.fresh++
	n := fmt.Sprintf("%%call.%s.%d", v, m.w.fresh)
	m.leftover[v] = n
	return n
}
