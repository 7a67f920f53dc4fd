package driver

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"suifx/internal/ir"
)

// units returns the scheduling units of prog's analysis: the procedures in
// bottom-up order, one unit each, with pos mapping a procedure name to its
// unit and deps[i] listing the units order[i] calls, in CallGraph order.
// The parser rejects recursion, so the call graph is a DAG whose
// strongly connected components are single procedures, and every dep is
// smaller than its unit's own index.
func units(prog *ir.Program) (pos map[string]int, deps [][]int) {
	order := prog.BottomUpOrder()
	pos = make(map[string]int, len(order))
	deps = make([][]int, len(order))
	for i, p := range order {
		pos[p.Name] = i
		for _, c := range prog.CallGraph()[p.Name] {
			deps[i] = append(deps[i], pos[c])
		}
	}
	return pos, deps
}

// runBottomUp runs fn once per unit on a pool of at most workers
// goroutines, starting unit i only after every unit in deps[i] has finished
// (errgroup-style bounded fan-out with a dependency DAG). Units are in
// bottom-up order (deps point at lower indices). A panic in fn is captured
// and re-raised in the caller after all goroutines join.
//
// Cancelling ctx abandons every unit that has not yet started: queued
// waves are skipped (their done-channels still close, so dependents never
// deadlock) and runBottomUp returns ctx's error. Units already inside fn
// run to completion — per-procedure analysis is pure and fast, so
// cancellation granularity is one procedure.
func runBottomUp(ctx context.Context, deps [][]int, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(deps) <= 1 {
		for i := range deps {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}

	done := make([]chan struct{}, len(deps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, workers)

	var (
		mu       sync.Mutex
		panicked any
		skipped  atomic.Bool
	)
	var wg sync.WaitGroup
	for i := range deps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i]) // always close, or dependents deadlock
			for _, d := range deps[i] {
				<-done[d]
			}
			mu.Lock()
			stop := panicked != nil
			mu.Unlock()
			if stop {
				return
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				skipped.Store(true)
				return
			}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				skipped.Store(true)
				return
			}
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("driver: analysis worker panicked: %v", panicked))
	}
	// Only report cancellation when it actually cost us work: a cancel that
	// lands after the last unit started still yields a complete result.
	if skipped.Load() {
		return ctx.Err()
	}
	return nil
}
