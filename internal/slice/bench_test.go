package slice

import (
	"testing"

	"suifx/internal/issa"
	"suifx/internal/workloads"
)

// BenchmarkAblationSliceSummaries compares memoized hierarchical slicing
// against a fresh slicer per query (no cross-query summary reuse).
func BenchmarkAblationSliceSummaries(b *testing.B) {
	prog := workloads.ByName("hydro").Fresh()
	g := issa.Build(prog)
	queries := [][3]interface{}{}
	for _, n := range g.Nodes {
		if n.Kind == issa.KDef && len(queries) < 24 {
			queries = append(queries, [3]interface{}{n.Proc, n.Sym.Name, n.Line})
		}
	}
	b.Run("shared-summaries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New(g, Config{Kind: Program})
			for _, q := range queries {
				s.OfUse(q[0].(string), q[1].(string), q[2].(int))
			}
		}
	})
	b.Run("fresh-per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				s := New(g, Config{Kind: Program})
				s.OfUse(q[0].(string), q[1].(string), q[2].(int))
			}
		}
	})
}
