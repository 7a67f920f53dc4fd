// Package slice implements the demand-driven, context-sensitive
// interprocedural slicing of Chapter 3 on the ISSA graph: slice summaries
// ⟨S, F⟩ per definition (call subslice + upwards-exposed formals, §3.5.2),
// a hierarchical shared representation of slice sets (§3.5.4), fixed-point
// handling of loop-carried recurrences (§3.5.3), program/data/control
// slices (§3.2.1), calling-context-specific slices, and the array- and
// code-region-restricted pruning of §3.6.
package slice

import (
	"sort"

	"suifx/internal/ir"
	"suifx/internal/issa"
)

// Kind selects which dependence edges the slice follows.
type Kind int

const (
	// Program slices follow data and control dependences.
	Program Kind = iota
	// Data slices follow only data dependence edges.
	Data
)

// Region restricts a slice to a code region (§3.6): nodes of the named
// procedure outside [Lo, Hi] become terminal.
type Region struct {
	Proc   string
	Lo, Hi int
}

// Config selects slice kind and pruning.
type Config struct {
	Kind Kind
	// ArrayRestricted prunes expansion at array-valued definitions (§3.6).
	ArrayRestricted bool
	// Region, when non-nil, prunes expansion outside the region (§3.6).
	Region *Region
}

// Summary is a slice summary ⟨S, F⟩ in hierarchical representation: the
// direct entries plus shared child summaries form S; Formals is F.
type Summary struct {
	Node    *issa.Node
	Entries []*issa.Node // terminal inclusions (pruned nodes)
	Subs    []*Summary
	Formals map[*issa.Node]bool
	// calleeSubs marks subs reached through a return edge: their formals are
	// resolved context-sensitively by the call watcher, never propagated.
	calleeSubs map[*Summary]bool
}

// Slicer computes and memoizes slice summaries for one configuration.
type Slicer struct {
	G   *issa.Graph
	Cfg Config

	memo map[*issa.Node]*Summary
	// watchers lists call-out summaries that must be re-expanded when a
	// callee summary's F set grows.
	watchers map[*Summary][]*callWatch
	worklist []*callWatch
}

type callWatch struct {
	out      *Summary // the call-out node's summary
	callee   *Summary // the callee final-def summary being watched
	call     *ir.Call // the return edge (context)
	resolved map[*issa.Node]bool
}

// New creates a slicer over the ISSA graph.
func New(g *issa.Graph, cfg Config) *Slicer {
	return &Slicer{G: g, Cfg: cfg, memo: map[*issa.Node]*Summary{}, watchers: map[*Summary][]*callWatch{}}
}

// Of computes the slice summary of a definition node.
func (s *Slicer) Of(n *issa.Node) *Summary {
	sum := s.summary(n)
	s.drain()
	return sum
}

// summary returns (creating) the memoized summary shell for n and expands it.
func (s *Slicer) summary(n *issa.Node) *Summary {
	if sum, ok := s.memo[n]; ok {
		return sum
	}
	sum := &Summary{Node: n, Formals: map[*issa.Node]bool{}}
	s.memo[n] = sum
	s.expand(sum)
	return sum
}

// expandable reports whether the slice should recurse into n's operands.
func (s *Slicer) expandable(n *issa.Node) bool {
	if s.Cfg.ArrayRestricted && n.Sym != nil && n.Sym.IsArray() && n.Kind != issa.KFormalIn {
		return false
	}
	if rg := s.Cfg.Region; rg != nil && n.Proc == rg.Proc {
		if n.Line < rg.Lo || n.Line > rg.Hi {
			return false
		}
	}
	return true
}

func (s *Slicer) addSub(sum *Summary, op *issa.Node) {
	if !s.expandable(op) {
		// Terminal: included in the slice but not expanded, and its formal
		// (if it is one) still propagates so call sites resolve it.
		sum.Entries = append(sum.Entries, op)
		if op.Kind == issa.KFormalIn {
			s.propagateFormal(sum, op)
		}
		return
	}
	child := s.summary(op)
	for _, have := range sum.Subs {
		if have == child {
			return
		}
	}
	sum.Subs = append(sum.Subs, child)
	for f := range child.Formals {
		s.propagateFormal(sum, f)
	}
}

// propagateFormal adds f to sum's F set; if sum is a call-out that resolves
// f's procedure, resolution happens in the watcher instead.
func (s *Slicer) propagateFormal(sum *Summary, f *issa.Node) {
	if sum.Formals[f] {
		return
	}
	sum.Formals[f] = true
	// Anyone holding sum as sub must be updated; done lazily through the
	// worklist when call-outs re-check their callee watchers, and eagerly
	// here for plain parents (handled because parents copy on addSub; late
	// growth is caught by reFlow).
	s.reFlow(sum)
}

// reFlow pushes F growth to every memoized parent and re-arms call watches.
func (s *Slicer) reFlow(changed *Summary) {
	for _, sum := range s.memo {
		for _, sub := range sum.Subs {
			if sub == changed && !sum.calleeSubs[sub] {
				for f := range changed.Formals {
					if !sum.Formals[f] {
						s.propagateFormal(sum, f)
					}
				}
			}
		}
	}
	for _, w := range s.watchers[changed] {
		s.worklist = append(s.worklist, w)
	}
}

func (s *Slicer) expand(sum *Summary) {
	n := sum.Node
	switch n.Kind {
	case issa.KFormalIn:
		sum.Formals[n] = true
		return
	case issa.KCallOut:
		// ⟨S_callee, ∅⟩ ∪ ⋃_{f∈F} SS(GetActual(f, this call)) — §3.5.2.
		call, _ := n.Stmt.(*ir.Call)
		for _, fin := range n.CalleeFinal {
			child := s.summary(fin)
			sum.Subs = append(sum.Subs, child)
			if sum.calleeSubs == nil {
				sum.calleeSubs = map[*Summary]bool{}
			}
			sum.calleeSubs[child] = true
			w := &callWatch{out: sum, callee: child, call: call, resolved: map[*issa.Node]bool{}}
			s.watchers[child] = append(s.watchers[child], w)
			s.worklist = append(s.worklist, w)
		}
	default:
		for _, op := range n.Ops {
			s.addSub(sum, op)
		}
	}
	if s.Cfg.Kind == Program {
		for _, c := range n.Ctrl {
			s.addSub(sum, c)
		}
	}
}

// drain resolves call-out formals until the fixed point.
func (s *Slicer) drain() {
	for len(s.worklist) > 0 {
		w := s.worklist[len(s.worklist)-1]
		s.worklist = s.worklist[:len(s.worklist)-1]
		for f := range w.callee.Formals {
			if w.resolved[f] {
				continue
			}
			w.resolved[f] = true
			s.resolveFormal(w, f)
		}
	}
}

// resolveFormal expands one upwards-exposed callee formal through the
// matching call site's actual operands (context sensitivity: only this
// call's binding is followed, §3.5.1).
func (s *Slicer) resolveFormal(w *callWatch, f *issa.Node) {
	bindings := s.G.Bindings[f]
	matched := false
	for _, b := range bindings {
		if b.Call != w.call {
			continue
		}
		matched = true
		for _, d := range b.Defs {
			s.addSub(w.out, d)
		}
	}
	if !matched {
		// The formal belongs to a procedure further down: keep it exposed;
		// the enclosing call-out (or the top-level query) resolves it.
		s.propagateFormal(w.out, f)
	}
}

// ---- results ----

// Result is a materialized slice: the set of contributing definitions.
type Result struct {
	Nodes map[*issa.Node]bool
	// ExtraStmts carries control statements added by control slices.
	ExtraStmts map[ir.Stmt]bool
	g          *issa.Graph
}

func newResult(g *issa.Graph) *Result {
	return &Result{Nodes: map[*issa.Node]bool{}, ExtraStmts: map[ir.Stmt]bool{}, g: g}
}

func (r *Result) addSummary(sum *Summary, seen map[*Summary]bool) {
	if seen[sum] {
		return
	}
	seen[sum] = true
	if sum.Node != nil {
		r.Nodes[sum.Node] = true
	}
	for _, e := range sum.Entries {
		r.Nodes[e] = true
	}
	for _, sub := range sum.Subs {
		r.addSummary(sub, seen)
	}
}

// Lines returns the slice's source lines per procedure.
func (r *Result) Lines() map[string]map[int]bool {
	out := map[string]map[int]bool{}
	add := func(proc string, line int) {
		if line <= 0 {
			return
		}
		m := out[proc]
		if m == nil {
			m = map[int]bool{}
			out[proc] = m
		}
		m[line] = true
	}
	for n := range r.Nodes {
		if n.Kind == issa.KFormalIn {
			continue // entry values have no statement
		}
		add(n.Proc, n.Line)
	}
	for st := range r.ExtraStmts {
		add(r.procOf(st), st.Position().Line)
	}
	return out
}

func (r *Result) procOf(st ir.Stmt) string {
	for _, p := range r.g.Prog.Procs {
		found := false
		ir.WalkStmts(p.Body, func(s ir.Stmt) bool {
			if s == st {
				found = true
			}
			return !found
		})
		if found {
			return p.Name
		}
	}
	return ""
}

// Size returns the number of distinct source lines in the slice.
func (r *Result) Size() int {
	n := 0
	for _, m := range r.Lines() {
		n += len(m)
	}
	return n
}

// SizeIn counts slice lines falling inside a region.
func (r *Result) SizeIn(rg Region) int {
	n := 0
	for line := range r.Lines()[rg.Proc] {
		if line >= rg.Lo && line <= rg.Hi {
			n++
		}
	}
	return n
}

// SortedLines renders deterministic (proc, line) pairs.
func (r *Result) SortedLines() []string {
	var keys []string
	for proc, m := range r.Lines() {
		for line := range m {
			keys = append(keys, lineKey(proc, line))
		}
	}
	sort.Strings(keys)
	return keys
}

func lineKey(proc string, line int) string {
	return proc + ":" + fourDigits(line)
}

func fourDigits(n int) string {
	b := []byte{'0', '0', '0', '0'}
	for i := 3; i >= 0 && n > 0; i-- {
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b)
}

// ---- queries ----

// resolveResidualFormals expands leftover formals of the top-level slice
// through all call sites (the paper's Slice(r) definition) or along a given
// calling context (Cslice). Returns the full materialized result.
func (s *Slicer) materialize(sum *Summary, context []*ir.Call) *Result {
	res := newResult(s.G)
	res.addSummary(sum, map[*Summary]bool{})
	// Residual formals: resolve through call sites.
	doneF := map[*issa.Node]bool{}
	pending := []*issa.Node{}
	// Only the root's F set is unresolved: formals deeper in the DAG were
	// resolved context-sensitively at their call-out watchers (or propagated
	// up into the root's F when no binding matched).
	collect := func(root *Summary) {
		for f := range root.Formals {
			if !doneF[f] {
				doneF[f] = true
				pending = append(pending, f)
			}
		}
	}
	collect(sum)
	depth := len(context)
	for len(pending) > 0 {
		f := pending[0]
		pending = pending[1:]
		bindings := s.G.Bindings[f]
		for _, b := range bindings {
			if depth > 0 {
				// Context-specific: only follow the top of the stack.
				if b.Call != context[depth-1] {
					continue
				}
			}
			for _, d := range b.Defs {
				ds := s.summary(d)
				s.drain()
				res.addSummary(ds, map[*Summary]bool{})
				collect(ds)
			}
		}
		if depth > 0 {
			depth--
		}
	}
	return res
}

// OfUse computes the slice of a variable use at a source line: the union of
// slices of its reaching definitions.
func (s *Slicer) OfUse(proc, name string, line int) *Result {
	return s.OfUseInContext(proc, name, line, nil)
}

// OfUseInContext computes a calling-context-specific slice (the paper's
// Cslice): residual formals are resolved only along the given call stack,
// innermost call last.
func (s *Slicer) OfUseInContext(proc, name string, line int, stack []*ir.Call) *Result {
	defs := s.G.FindUse(proc, name, line)
	res := newResult(s.G)
	for _, d := range defs {
		sum := s.Of(d)
		part := s.materialize(sum, stack)
		for n := range part.Nodes {
			res.Nodes[n] = true
		}
	}
	return res
}

// ControlSliceOfLine computes the control slice (§3.2.1) of the statement at
// the given line: the conditions controlling its execution plus the program
// slices of those condition expressions.
func (s *Slicer) ControlSliceOfLine(proc string, line int) *Result {
	res := newResult(s.G)
	for _, n := range s.G.NodesAtLine(proc, line) {
		for _, st := range n.CtrlStmts {
			res.ExtraStmts[st] = true
		}
		for _, c := range n.Ctrl {
			sum := s.Of(c)
			part := s.materialize(sum, nil)
			for x := range part.Nodes {
				res.Nodes[x] = true
			}
		}
	}
	return res
}
