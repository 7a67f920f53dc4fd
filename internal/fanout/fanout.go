// Package fanout runs independent, indexed work items on a bounded number of
// goroutines. The parallelizer's per-loop dependence tests and the
// experiment tables' per-workload runs use it.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Each runs fn(0..n-1) on the calling goroutine plus up to workers-1
// helpers, which take indices from one shared counter; it returns when
// every call has. Below two items or two workers no goroutine starts. A
// panic in any call stops the others taking new items and is re-raised on
// the caller, with its original value, once all have returned. Callers
// that store each result at its index see no trace of the scheduling.
func Each(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		panicked any
		wg       sync.WaitGroup
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n)) // nobody takes another item
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
