package experiments

import (
	"fmt"
	"runtime"

	"suifx/internal/fanout"
)

// generator pairs a figure ID with its table function, in publication order.
type generator struct {
	id string
	fn func() *Table
}

// generators is the single registry of reproduced tables; cmd/paperfigs and
// the golden regression tests both drive it.
var generators = []generator{
	{"4-1", Fig4_1}, {"4-7", Fig4_7}, {"4-8", Fig4_8}, {"4-9", Fig4_9}, {"4-10", Fig4_10},
	{"5-5", Fig5_5}, {"5-6", Fig5_6}, {"5-7", Fig5_7}, {"5-8", Fig5_8}, {"5-10", Fig5_10}, {"5-12", Fig5_12},
	{"6-1", Fig6_1}, {"6-2", Fig6_2}, {"6-3", Fig6_3}, {"6-4", Fig6_4}, {"6-5", Fig6_5}, {"6-6", Fig6_6}, {"6-7", Fig6_7},
}

// TableIDs returns every reproduced figure ID in publication order.
func TableIDs() []string {
	out := make([]string, len(generators))
	for i, g := range generators {
		out[i] = g.id
	}
	return out
}

// Generate regenerates the named tables, fanning the work out across
// GOMAXPROCS goroutines (each generator pulls its workload analyses from
// the shared driver cache, so concurrent generators share summaries).
// Results come back in request order regardless of completion order.
func Generate(ids []string) ([]*Table, error) {
	fns := make([]func() *Table, len(ids))
	for i, id := range ids {
		found := false
		for _, g := range generators {
			if g.id == id {
				fns[i] = g.fn
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: unknown figure %q", id)
		}
	}
	out := make([]*Table, len(ids))
	fanout.Each(runtime.GOMAXPROCS(0), len(ids), func(i int) { out[i] = fns[i]() })
	return out, nil
}
