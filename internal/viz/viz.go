// Package viz renders the Rivet visualization metaphors of §2.7 as text: a
// focus-plus-context call-graph browser standing in for the hyperbolic
// viewer, and an annotated source viewer that can highlight slice lines and
// carry each loop's verdict as directive lines.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"suifx/internal/ir"
	"suifx/internal/parallel"
)

// CallGraph renders a focus-plus-context call-graph browser: the focused
// procedure expands fully, everything else collapses beyond depth 1 (the
// text analogue of the hyperbolic viewer).
type CallGraph struct {
	Prog  *ir.Program
	Focus string
	// Weight optionally annotates nodes (e.g. execution time share).
	Weight func(proc string) string
}

// Render returns the browser text, rooted at the main program.
func (cg *CallGraph) Render() string {
	var b strings.Builder
	graph := cg.Prog.CallGraph()
	main := cg.Prog.Main()
	if main == nil {
		return ""
	}
	onFocusPath := map[string]bool{}
	if cg.Focus != "" {
		var mark func(n string) bool
		seen := map[string]bool{}
		mark = func(n string) bool {
			if seen[n] {
				return onFocusPath[n]
			}
			seen[n] = true
			hit := n == cg.Focus
			for _, c := range graph[n] {
				if mark(c) {
					hit = true
				}
			}
			onFocusPath[n] = hit
			return hit
		}
		mark(main.Name)
	}
	var rec func(n string, depth int, visited map[string]bool)
	rec = func(n string, depth int, visited map[string]bool) {
		label := n
		if cg.Weight != nil {
			if w := cg.Weight(n); w != "" {
				label += " " + w
			}
		}
		marker := "  "
		if n == cg.Focus {
			marker = "* "
		}
		fmt.Fprintf(&b, "%s%s%s\n", strings.Repeat("  ", depth), marker, label)
		if visited[n] {
			return
		}
		visited[n] = true
		expand := cg.Focus == "" || onFocusPath[n] || depth < 1
		children := append([]string(nil), graph[n]...)
		sort.Strings(children)
		for _, c := range children {
			if expand {
				rec(c, depth+1, visited)
			} else {
				fmt.Fprintf(&b, "%s  %s ...\n", strings.Repeat("  ", depth+1), c)
			}
		}
	}
	rec(main.Name, 0, map[string]bool{})
	return b.String()
}

// SourceView renders annotated source: slice lines marked with '*', the
// queried reference with '>', and each loop's verdict as directive lines
// above its DO header.
type SourceView struct {
	// Source holds the program's lines, line n at index n-1.
	Source []string
	// Highlight marks lines (e.g. a program slice).
	Highlight map[int]bool
	// Anchor is the queried reference's line.
	Anchor int
	// From..To bound the display (0 = whole file).
	From, To int
	// Verdicts annotates the loops whose headers are displayed.
	Verdicts []parallel.LoopVerdict
}

// Render returns the annotated source text. Directive lines carry no line
// number, so their text starts in the source's column 1, as a Fortran
// comment directive does.
func (sv *SourceView) Render() string {
	from, to := sv.From, sv.To
	if from <= 0 {
		from = 1
	}
	if to <= 0 || to > len(sv.Source) {
		to = len(sv.Source)
	}
	above := map[int][]string{}
	for _, lv := range sv.Verdicts {
		above[lv.Lines[0]] = append(above[lv.Lines[0]], Directives(lv)...)
	}
	var b strings.Builder
	for line := from; line <= to; line++ {
		for _, d := range above[line] {
			fmt.Fprintf(&b, "%6s %s\n", "", d)
		}
		mark := " "
		if sv.Highlight[line] {
			mark = "*"
		}
		if line == sv.Anchor {
			mark = ">"
		}
		fmt.Fprintf(&b, "%s%5d %s\n", mark, line, sv.Source[line-1])
	}
	return b.String()
}

// Directives renders one loop verdict as the lines placed above its DO
// header: "C$PAR DO" (chosen), "C$PAR" (parallelizable) or "C$SEQ", the loop
// ID, "nested" inside a chosen loop, then PRIVATE(…) SHARED(…)
// REDUCTION(op:…) and [user: …] for asserted variables, names sorted; one
// "C$SEQ blocked by V: <reason>" line follows per dependence variable.
func Directives(lv parallel.LoopVerdict) []string {
	head := "C$SEQ"
	switch {
	case lv.Chosen:
		head = "C$PAR DO"
	case lv.Parallelizable:
		head = "C$PAR"
	}
	head += " " + lv.ID
	if lv.UnderParallel {
		head += " nested"
	}
	vars := append([]parallel.VarVerdict(nil), lv.Vars...)
	sort.SliceStable(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
	var private, shared, user, blocked []string
	reductions := map[string][]string{}
	for _, v := range vars {
		switch v.Class {
		case "private":
			private = append(private, v.Name)
		case "parallel":
			shared = append(shared, v.Name)
		case "reduction":
			reductions[v.Reduction] = append(reductions[v.Reduction], v.Name)
		default:
			blocked = append(blocked, "C$SEQ blocked by "+v.Name+": "+v.Reason)
		}
		if v.ByAssertion {
			user = append(user, v.Name)
		}
	}
	clause := func(open string, names []string) {
		if len(names) > 0 {
			head += " " + open + strings.Join(names, ",") + ")"
		}
	}
	clause("PRIVATE(", private)
	clause("SHARED(", shared)
	ops := make([]string, 0, len(reductions))
	for op := range reductions {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		clause("REDUCTION("+op+":", reductions[op])
	}
	if len(user) > 0 {
		head += " [user: " + strings.Join(user, ",") + "]"
	}
	return append([]string{head}, blocked...)
}
