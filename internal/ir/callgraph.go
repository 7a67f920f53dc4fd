package ir

// callGraph is a program's call graph. The parser links it once (Link), and
// a Program is immutable after Parse, so every pass reads this one graph
// and none rebuilds it.
type callGraph struct {
	callees  map[string][]string   // caller -> callees, first-occurrence order
	sites    map[string][]CallSite // callee -> call sites, program order
	bottomUp []*Proc               // every callee before its callers
	topDown  []*Proc               // bottomUp reversed
}

// CallSite pairs a Call statement with the procedure containing it.
type CallSite struct {
	Caller *Proc
	Call   *Call
}

// Link stores the program's call graph, built from sites: every CALL of the
// program in program order (procedures in declaration order, statements in
// source order), each naming a procedure of the program. It reports false
// and stores nothing when the graph is recursive, which MiniF (like the
// paper's analysis, §5.2) does not support. Otherwise it then links the
// storage model (storage.go), which needs the bottom-up order. The parser
// links every program it returns.
func (p *Program) Link(sites []CallSite) bool {
	g := callGraph{
		callees: make(map[string][]string, len(p.Procs)),
		sites:   map[string][]CallSite{},
	}
	for _, pr := range p.Procs {
		g.callees[pr.Name] = nil
	}
	type edge struct{ from, to string }
	seen := map[edge]bool{}
	for _, cs := range sites {
		if e := (edge{cs.Caller.Name, cs.Call.Name}); !seen[e] {
			seen[e] = true
			g.callees[e.from] = append(g.callees[e.from], e.to)
		}
		g.sites[cs.Call.Name] = append(g.sites[cs.Call.Name], cs)
	}

	// Bottom-up order is the DFS postorder from each procedure in
	// declaration order; meeting a procedure still on the stack is a cycle.
	state := make(map[string]int, len(p.Procs)) // 0 unvisited, 1 on stack, 2 done
	var visit func(pr *Proc) bool
	visit = func(pr *Proc) bool {
		switch state[pr.Name] {
		case 1:
			return false
		case 2:
			return true
		}
		state[pr.Name] = 1
		for _, c := range g.callees[pr.Name] {
			if !visit(p.ByName[c]) {
				return false
			}
		}
		state[pr.Name] = 2
		g.bottomUp = append(g.bottomUp, pr)
		return true
	}
	for _, pr := range p.Procs {
		if !visit(pr) {
			return false
		}
	}
	g.topDown = make([]*Proc, len(g.bottomUp))
	for i, pr := range g.bottomUp {
		g.topDown[len(g.bottomUp)-1-i] = pr
	}
	p.calls = g
	p.linkStorage()
	return true
}

// CallGraph maps each procedure to the procedures it calls, deduplicated,
// in first-occurrence order. The map is the program's own: read it, never
// modify it.
func (p *Program) CallGraph() map[string][]string { return p.calls.callees }

// BottomUpOrder returns the procedures ordered so that every callee precedes
// its callers. The slice is the program's own: never modify it.
func (p *Program) BottomUpOrder() []*Proc { return p.calls.bottomUp }

// TopDownOrder returns callers before callees: BottomUpOrder reversed. The
// slice is the program's own: never modify it.
func (p *Program) TopDownOrder() []*Proc { return p.calls.topDown }

// Sites returns every call of callee, with its enclosing procedure, in
// program order. The slice is the program's own: never modify it.
func (p *Program) Sites(callee string) []CallSite { return p.calls.sites[callee] }

// Reachable returns the procedures called, directly or transitively, from
// stmts, each once, in DFS preorder: the CALLs of stmts in source order,
// each followed by its callees' in CallGraph order.
func (p *Program) Reachable(stmts []Stmt) []*Proc {
	seen := map[string]bool{}
	var out []*Proc
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		out = append(out, p.ByName[name])
		for _, c := range p.calls.callees[name] {
			visit(c)
		}
	}
	WalkStmts(stmts, func(s Stmt) bool {
		if c, ok := s.(*Call); ok {
			visit(c.Name)
		}
		return true
	})
	return out
}
