// Package region builds the hierarchical region graph of §5.2: every
// procedure, loop, and loop body is a region; edges connect regions to their
// subregions (callers to callees, outer scopes to inner scopes). Because
// MiniF is fully structured after parsing, regions are derived directly from
// the AST.
package region

import (
	"fmt"

	"suifx/internal/ir"
)

// Kind classifies a region.
type Kind int

const (
	// ProcRegion is a whole procedure body.
	ProcRegion Kind = iota
	// LoopRegion is a DO loop (header + body); its summary is the closure of
	// its body's summary.
	LoopRegion
	// LoopBody is the body of a DO loop for one iteration.
	LoopBody
)

func (k Kind) String() string {
	switch k {
	case ProcRegion:
		return "proc"
	case LoopRegion:
		return "loop"
	default:
		return "body"
	}
}

// Region is one node of the region graph.
type Region struct {
	Kind     Kind
	Proc     *ir.Proc
	Loop     *ir.DoLoop // nil for ProcRegion
	Parent   *Region
	Children []*Region // nested loop regions, in source order
	Stmts    []ir.Stmt // the statement list (proc body / loop body); nil for LoopRegion
	Depth    int       // loop nesting depth (0 for proc region)
}

// ID returns a stable identifier: "PROC" for procedure regions,
// "PROC/LABEL" for loops, "PROC/LABEL.body" for loop bodies.
func (r *Region) ID() string {
	switch r.Kind {
	case ProcRegion:
		return r.Proc.Name
	case LoopRegion:
		return r.Loop.ID(r.Proc.Name)
	default:
		return r.Loop.ID(r.Proc.Name) + ".body"
	}
}

// Body returns the LoopBody child of a LoopRegion (itself otherwise).
func (r *Region) Body() *Region {
	if r.Kind == LoopRegion {
		return r.Children[0]
	}
	return r
}

// EnclosingLoop returns the nearest enclosing LoopRegion, or nil.
func (r *Region) EnclosingLoop() *Region {
	for p := r.Parent; p != nil; p = p.Parent {
		if p.Kind == LoopRegion {
			return p
		}
	}
	return nil
}

// CallSites returns the CALL statements directly inside this region's
// statement list, not descending into nested loops (nested loops are separate
// subregions) but descending into IFs.
func (r *Region) CallSites() []*ir.Call {
	var out []*ir.Call
	var visit func(stmts []ir.Stmt)
	visit = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ir.Call:
				out = append(out, st)
			case *ir.If:
				visit(st.Then)
				visit(st.Else)
			}
		}
	}
	visit(r.Stmts)
	return out
}

// AllCallSites returns every CALL anywhere inside the region, including
// nested loops.
func (r *Region) AllCallSites() []*ir.Call {
	var out []*ir.Call
	stmts := r.Stmts
	if r.Kind == LoopRegion {
		stmts = r.Loop.Body
	}
	ir.WalkStmts(stmts, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.Call); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// Lines returns the source line span of the region.
func (r *Region) Lines() (start, end int) {
	switch r.Kind {
	case ProcRegion:
		return r.Proc.Pos.Line, r.Proc.EndLine
	default:
		return r.Loop.Pos.Line, r.Loop.EndLine
	}
}

// Info holds the region graph for one program.
type Info struct {
	Prog    *ir.Program
	ProcTop map[string]*Region     // procedure name -> ProcRegion
	OfLoop  map[*ir.DoLoop]*Region // DO loop -> its LoopRegion
}

// Build constructs the region graph for prog.
func Build(prog *ir.Program) *Info {
	info := &Info{
		Prog:    prog,
		ProcTop: map[string]*Region{},
		OfLoop:  map[*ir.DoLoop]*Region{},
	}
	for _, p := range prog.Procs {
		top := &Region{Kind: ProcRegion, Proc: p, Stmts: p.Body}
		info.ProcTop[p.Name] = top
		info.buildChildren(top, p, p.Body, 0)
	}
	return info
}

func (info *Info) buildChildren(parent *Region, proc *ir.Proc, stmts []ir.Stmt, depth int) {
	var visit func(stmts []ir.Stmt)
	visit = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ir.DoLoop:
				lr := &Region{Kind: LoopRegion, Proc: proc, Loop: st, Parent: parent, Depth: depth + 1}
				body := &Region{Kind: LoopBody, Proc: proc, Loop: st, Parent: lr, Stmts: st.Body, Depth: depth + 1}
				lr.Children = []*Region{body}
				parent.Children = append(parent.Children, lr)
				info.OfLoop[st] = lr
				info.buildChildren(body, proc, st.Body, depth+1)
			case *ir.If:
				visit(st.Then)
				visit(st.Else)
			}
		}
	}
	visit(stmts)
}

// LoopRegions returns every loop region in the program, procedures in
// declaration order and loops in source order, outermost first.
func (info *Info) LoopRegions() []*Region {
	var out []*Region
	for _, p := range info.Prog.Procs {
		var rec func(r *Region)
		rec = func(r *Region) {
			for _, c := range r.Children {
				if c.Kind == LoopRegion {
					out = append(out, c)
					rec(c.Body())
				}
			}
		}
		rec(info.ProcTop[p.Name])
	}
	return out
}

// InnerToOuter returns the loop regions of a procedure ordered innermost
// first (children before parents), as the bottom-up analysis phase requires.
func (info *Info) InnerToOuter(proc string) []*Region {
	var out []*Region
	var rec func(r *Region)
	rec = func(r *Region) {
		for _, c := range r.Children {
			if c.Kind == LoopRegion {
				rec(c.Body())
				out = append(out, c)
			}
		}
	}
	top := info.ProcTop[proc]
	if top == nil {
		return nil
	}
	rec(top)
	return out
}

// LoopNest describes whether a loop (directly or transitively) contains
// procedure calls — the paper's "inter" vs "intra" classification (Fig 4-7).
func (info *Info) LoopNest(r *Region) string {
	if r.Kind != LoopRegion {
		return ""
	}
	if len(r.AllCallSites()) > 0 {
		return "inter"
	}
	return "intra"
}

// String renders the region tree of a procedure for debugging.
func (info *Info) String(proc string) string {
	top := info.ProcTop[proc]
	if top == nil {
		return ""
	}
	out := ""
	var rec func(r *Region, indent string)
	rec = func(r *Region, indent string) {
		out += fmt.Sprintf("%s%s [%s]\n", indent, r.ID(), r.Kind)
		for _, c := range r.Children {
			rec(c, indent+"  ")
		}
	}
	rec(top, "")
	return out
}
