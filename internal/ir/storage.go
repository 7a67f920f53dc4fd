package ir

import "slices"

// The storage model, linked once by the parser like the call graph. A
// common member's storage key is its block, offset and shape; Link picks
// one symbol per key, its representative, and the analyses key every fact
// on it, so accesses from different procedures unify (Chapter 5).

// Canon returns the representative of s's storage: s itself for a local, a
// parameter or a symbol of a program that was never linked.
func (s *Symbol) Canon() *Symbol {
	if s.canon == nil {
		return s
	}
	return s.canon
}

// Own returns the symbol p declares for sym's storage: p's own member when
// p declares sym's storage key, else sym itself (a local, or storage p
// reaches only through a call).
func (p *Proc) Own(sym *Symbol) *Symbol {
	if o := p.own[sym.Canon()]; o != nil {
		return o
	}
	return sym
}

// Keys returns the representatives of the block's storage keys, in the
// order Link picked them. The slice is the program's own: never modify it.
func (b *CommonBlock) Keys() []*Symbol { return b.keys }

// linkStorage picks the representative of every storage key: the first
// symbol with that key met over the procedures bottom-up, each procedure's
// references in statement-walk order (a DO index before its bounds), then
// every declared symbol, procedure by procedure bottom-up and by name. It
// also records, per procedure, its own symbol for each key it declares.
func (p *Program) linkStorage() {
	type slot struct {
		block string
		off   int64
	}
	reps := map[slot][]*Symbol{}
	reg := func(s *Symbol) {
		if s.Common == "" || s.canon != nil {
			return
		}
		at := slot{s.Common, s.CommonOffset}
		for _, r := range reps[at] {
			if slices.Equal(r.Dims, s.Dims) {
				s.canon = r
				return
			}
		}
		s.canon = s
		reps[at] = append(reps[at], s)
		blk := p.Commons[s.Common]
		blk.keys = append(blk.keys, s)
	}
	for _, pr := range p.calls.bottomUp {
		WalkStmts(pr.Body, func(st Stmt) bool {
			if l, ok := st.(*DoLoop); ok {
				reg(l.Index)
			}
			WalkExprs(st, func(e Expr) {
				if r, ok := e.(Ref); ok {
					reg(r.Symbol())
				}
			})
			return true
		})
	}
	for _, pr := range p.calls.bottomUp {
		for _, s := range pr.SortedSyms() {
			if s.Common == "" {
				continue
			}
			reg(s)
			if pr.own == nil {
				pr.own = map[*Symbol]*Symbol{}
			}
			if pr.own[s.canon] == nil {
				pr.own[s.canon] = s
			}
		}
	}
}
