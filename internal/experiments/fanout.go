package experiments

import (
	"runtime"

	"suifx/internal/fanout"
	"suifx/internal/workloads"
)

// perApp runs f once per named workload on the bounded worker pool and
// returns the results in input order, so tables built from them keep
// deterministic row order regardless of scheduling. Independent executions
// are safe to fan out: the parse and whole-program summary come from the
// shared driver cache, the compiled bytecode is attached to the shared
// program and is read-only after lowering, and each run's mutable state
// (arena, profiler, dependence shadow memory) is private — the VM's
// per-worker scratch arenas are recycled through the program's pools.
func perApp[T any](names []string, f func(w *workloads.Workload) T) []T {
	out := make([]T, len(names))
	fanout.Each(runtime.GOMAXPROCS(0), len(names), func(i int) { out[i] = f(workloads.ByName(names[i])) })
	return out
}
