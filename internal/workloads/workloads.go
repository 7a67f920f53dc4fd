// Package workloads holds the MiniF re-creations of the paper's benchmark
// applications. Each program reproduces the loop structure, dependence
// patterns and parallelization story the thesis describes for the original
// Fortran application (scaled down in size; see DESIGN.md's substitution
// notes): which loops the compiler parallelizes automatically, which arrays
// need which user assertion, which arrays are dead at loop exits, where
// reductions matter, and where memory behaviour dominates.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/parallel"
)

// Workload is one benchmark program plus its paper-derived metadata.
type Workload struct {
	Name        string
	Suite       string // "ch4", "ch5", "spec92", "nas", "perfect"
	Description string
	DataSet     string
	Source      string
	// UserAssertions is the §4.4 user-assistance script: per loop ID, the
	// variables the programmer asserts (after inspecting slices).
	UserAssertions map[string]parallel.AssertSet
	// StreamingLoops lists loops whose arrays are vector-style temporaries
	// (array contraction targets; drives the Fig 5-12 memory model).
	StreamingLoops []string
	// ConflictingDecomp lists loops whose data decomposition clashes with a
	// neighbor's (the hydro §4.2.4 row/column story).
	ConflictingDecomp []string

	once sync.Once
	prog *ir.Program
	err  error
}

// Program parses (once) and returns the program.
func (w *Workload) Program() *ir.Program {
	w.once.Do(func() { w.prog, w.err = minif.Parse(w.Name, w.Source) })
	if w.err != nil {
		panic(fmt.Sprintf("workload %s: %v", w.Name, w.err))
	}
	return w.prog
}

// Fresh parses a new, independent copy (interpreter runs mutate nothing in
// the IR, but separate copies keep experiments isolated).
func (w *Workload) Fresh() *ir.Program {
	p, err := minif.Parse(w.Name, w.Source)
	if err != nil {
		panic(fmt.Sprintf("workload %s: %v", w.Name, err))
	}
	return p
}

// Assertions deep-copies the user-assistance script in the parallelizer's
// format.
func (w *Workload) Assertions() map[string]parallel.AssertSet {
	out := map[string]parallel.AssertSet{}
	for k, v := range w.UserAssertions {
		as := parallel.AssertSet{Private: map[string]bool{}, Independent: map[string]bool{}}
		for n := range v.Private {
			as.Private[n] = true
		}
		for n := range v.Independent {
			as.Independent[n] = true
		}
		out[k] = as
	}
	return out
}

// Assertion is one step of a user-assistance script.
type Assertion struct {
	Loop, Var string
	// Independent selects the INDEPENDENT assertion; otherwise PRIVATE.
	Independent bool
}

// Script returns the §4.4 dialogue in the order every replay uses: loops
// sorted, each loop's private assertions before its independent ones,
// variables sorted.
func (w *Workload) Script() []Assertion {
	var out []Assertion
	for _, loop := range sortedKeys(w.UserAssertions) {
		as := w.UserAssertions[loop]
		for _, v := range sortedKeys(as.Private) {
			out = append(out, Assertion{Loop: loop, Var: v})
		}
		for _, v := range sortedKeys(as.Independent) {
			out = append(out, Assertion{Loop: loop, Var: v, Independent: true})
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var registry = map[string]*Workload{}

func register(w *Workload) *Workload {
	registry[w.Name] = w
	return w
}

// Lookup returns a registered workload, or false for a name nobody
// registered — the form for names that arrive from outside the program.
func Lookup(n string) (*Workload, bool) {
	w, ok := registry[n]
	return w, ok
}

// ByName is Lookup for names fixed in the source: an unknown one is a
// programming error and panics.
func ByName(n string) *Workload {
	w, ok := Lookup(n)
	if !ok {
		panic("workloads: unknown workload " + n)
	}
	return w
}

// All returns every workload sorted by suite then name.
func All() []*Workload {
	out := make([]*Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the workloads of one suite.
func Suite(s string) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// priv builds a private-assertion set.
func priv(names ...string) parallel.AssertSet {
	as := parallel.AssertSet{Private: map[string]bool{}, Independent: map[string]bool{}}
	for _, n := range names {
		as.Private[n] = true
	}
	return as
}
