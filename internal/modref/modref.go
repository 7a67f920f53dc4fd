// Package modref computes a flow-insensitive interprocedural mod/ref
// summary for every procedure: which parameters and which common-block
// element ranges a procedure (or anything it calls) may read or write. The
// scalar symbolic analysis and the array data-flow analyses use it to decide
// which caller variables a CALL may disturb.
package modref

import (
	"suifx/internal/ir"
)

// Range is an element range [Lo, Hi] within a common block's flat storage.
type Range struct {
	Lo, Hi int64
}

func (r Range) overlaps(o Range) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Effects summarizes one procedure's side effects in location space:
// per-parameter mod/ref bits and per-common-block modified/referenced
// element ranges (member granularity).
type Effects struct {
	ModParam  []bool
	RefParam  []bool
	ModCommon map[string][]Range
	RefCommon map[string][]Range
}

func newEffects(nparams int) *Effects {
	return &Effects{
		ModParam:  make([]bool, nparams),
		RefParam:  make([]bool, nparams),
		ModCommon: map[string][]Range{},
		RefCommon: map[string][]Range{},
	}
}

func addRange(m map[string][]Range, blk string, r Range) {
	for _, e := range m[blk] {
		if e == r {
			return
		}
	}
	m[blk] = append(m[blk], r)
}

// Info holds the analysis result for a whole program.
type Info struct {
	Prog    *ir.Program
	Effects map[string]*Effects
}

// NewInfo returns an empty Info; procedure effects are added with
// AnalyzeProc + Merge (or all at once by Analyze).
func NewInfo(prog *ir.Program) *Info {
	return &Info{Prog: prog, Effects: map[string]*Effects{}}
}

// Analyze computes mod/ref effects bottom-up over the (acyclic) call graph,
// sequentially. The concurrent scheduler in internal/driver produces the
// same result by running AnalyzeProc on a worker pool.
func Analyze(prog *ir.Program) *Info {
	info := NewInfo(prog)
	for _, p := range prog.BottomUpOrder() {
		info.Merge(p.Name, info.AnalyzeProc(p, info.EffectsOf))
	}
	return info
}

// EffectsOf returns the merged effects for a procedure name (nil if not yet
// merged) — the callee lookup used by the sequential driver.
func (info *Info) EffectsOf(name string) *Effects { return info.Effects[name] }

// Merge records one procedure's effects in the whole-program map.
func (info *Info) Merge(name string, eff *Effects) { info.Effects[name] = eff }

// Clone returns an Info with a fresh effects map sharing the per-procedure
// Effects values (which are immutable after Merge). Merging into the clone
// never disturbs the original — the hook the incremental driver uses to
// branch a session's analysis off a cached whole-program result.
func (info *Info) Clone() *Info {
	out := &Info{Prog: info.Prog, Effects: make(map[string]*Effects, len(info.Effects))}
	for k, v := range info.Effects {
		out.Effects[k] = v
	}
	return out
}

// AnalyzeProc computes one procedure's effects. It reads only the program
// structure plus the callees' effects via the lookup, so calls for
// independent procedures may run concurrently.
func (info *Info) AnalyzeProc(p *ir.Proc, callee func(string) *Effects) *Effects {
	eff := newEffects(len(p.Params))

	mod := func(sym *ir.Symbol) {
		if sym.IsParam {
			eff.ModParam[sym.ParamIndex] = true
		} else if sym.Common != "" {
			addRange(eff.ModCommon, sym.Common, Range{sym.CommonOffset, sym.CommonOffset + sym.NElems() - 1})
		}
	}
	ref := func(sym *ir.Symbol) {
		if sym.IsParam {
			eff.RefParam[sym.ParamIndex] = true
		} else if sym.Common != "" {
			addRange(eff.RefCommon, sym.Common, Range{sym.CommonOffset, sym.CommonOffset + sym.NElems() - 1})
		}
	}

	ir.WalkStmts(p.Body, func(s ir.Stmt) bool {
		// References in all sub-expressions.
		ir.WalkExprs(s, func(e ir.Expr) {
			switch x := e.(type) {
			case *ir.VarRef:
				ref(x.Sym)
			case *ir.ArrayRef:
				ref(x.Sym)
			}
		})
		switch st := s.(type) {
		case *ir.Assign:
			mod(st.Lhs.Symbol())
		case *ir.DoLoop:
			mod(st.Index)
		case *ir.IO:
			if !st.Write {
				for _, a := range st.Args {
					if r, ok := a.(ir.Ref); ok {
						mod(r.Symbol())
					}
				}
			}
		case *ir.Call:
			info.applyCall(st, eff, callee)
		}
		return true
	})
	return eff
}

// applyCall folds a callee's effects into the caller's summary through the
// argument bindings and shared common blocks.
func (info *Info) applyCall(c *ir.Call, eff *Effects, callee func(string) *Effects) {
	ce := callee(c.Name)
	if ce == nil {
		return // should not happen in bottom-up order
	}
	for i, arg := range c.Args {
		if i >= len(ce.ModParam) {
			break
		}
		base := baseSymbol(arg)
		if base == nil {
			continue // expression argument: value copy, no caller effect
		}
		if ce.ModParam[i] {
			if base.IsParam {
				eff.ModParam[base.ParamIndex] = true
			} else if base.Common != "" {
				addRange(eff.ModCommon, base.Common, Range{base.CommonOffset, base.CommonOffset + base.NElems() - 1})
			}
		}
		if ce.RefParam[i] {
			if base.IsParam {
				eff.RefParam[base.ParamIndex] = true
			} else if base.Common != "" {
				addRange(eff.RefCommon, base.Common, Range{base.CommonOffset, base.CommonOffset + base.NElems() - 1})
			}
		}
	}
	for blk, rs := range ce.ModCommon {
		for _, r := range rs {
			addRange(eff.ModCommon, blk, r)
		}
	}
	for blk, rs := range ce.RefCommon {
		for _, r := range rs {
			addRange(eff.RefCommon, blk, r)
		}
	}
}

// baseSymbol returns the symbol an argument expression designates as
// pass-by-reference storage: a scalar variable, a whole array, or a subarray
// starting point. Other expressions pass values.
func baseSymbol(e ir.Expr) *ir.Symbol {
	switch x := e.(type) {
	case *ir.VarRef:
		return x.Sym
	case *ir.ArrayRef:
		return x.Sym
	}
	return nil
}

// BaseSymbol exposes baseSymbol for other analyses.
func BaseSymbol(e ir.Expr) *ir.Symbol { return baseSymbol(e) }

// CallMods returns the caller-scope symbols a call may modify: actual
// argument bases bound to modified parameters, plus any caller symbol
// overlapping a modified common-block range.
func (info *Info) CallMods(caller *ir.Proc, c *ir.Call) []*ir.Symbol {
	return info.callTouches(caller, c, true)
}

// CallRefs returns the caller-scope symbols a call may read.
func (info *Info) CallRefs(caller *ir.Proc, c *ir.Call) []*ir.Symbol {
	return info.callTouches(caller, c, false)
}

func (info *Info) callTouches(caller *ir.Proc, c *ir.Call, wantMod bool) []*ir.Symbol {
	ce := info.Effects[c.Name]
	var out []*ir.Symbol
	seen := map[*ir.Symbol]bool{}
	add := func(s *ir.Symbol) {
		if s != nil && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	params := ce.RefParam
	commons := ce.RefCommon
	if wantMod {
		params = ce.ModParam
		commons = ce.ModCommon
	}
	for i, arg := range c.Args {
		if i < len(params) && params[i] {
			add(baseSymbol(arg))
		}
	}
	// Iterate caller symbols (sorted) in the outer loop so the result order
	// does not depend on map iteration over common blocks.
	for _, sym := range caller.SortedSyms() {
		rs := commons[sym.Common]
		if sym.Common == "" || len(rs) == 0 {
			continue
		}
		sr := Range{sym.CommonOffset, sym.CommonOffset + sym.NElems() - 1}
		for _, r := range rs {
			if sr.overlaps(r) {
				add(sym)
				break
			}
		}
	}
	return out
}

// ModifiedScalars returns the scalar symbols of proc that may be modified
// anywhere within the statement list (including via calls) — the kill set
// for forward substitution in the symbolic analysis.
func (info *Info) ModifiedScalars(proc *ir.Proc, stmts []ir.Stmt) map[*ir.Symbol]bool {
	out := map[*ir.Symbol]bool{}
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		switch st := s.(type) {
		case *ir.Assign:
			if !st.Lhs.Symbol().IsArray() {
				out[st.Lhs.Symbol()] = true
			}
		case *ir.DoLoop:
			out[st.Index] = true
		case *ir.IO:
			if !st.Write {
				for _, a := range st.Args {
					if r, ok := a.(ir.Ref); ok && !r.Symbol().IsArray() {
						out[r.Symbol()] = true
					}
				}
			}
		case *ir.Call:
			for _, sym := range info.CallMods(proc, st) {
				if !sym.IsArray() {
					out[sym] = true
				}
			}
		}
		return true
	})
	return out
}
