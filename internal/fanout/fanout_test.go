package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce: every index runs exactly once for pools
// narrower than, as wide as and wider than the work.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 64} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			counts := make([]atomic.Int32, n)
			Each(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers %d, n %d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestEachPanicReachesCaller: a panic on a helper comes out of Each on the
// caller with its original value, after every helper has returned.
func TestEachPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		Each(4, 100, func(i int) {
			if i == 50 {
				panic("item 50")
			}
		})
	}()
	if got != "item 50" {
		t.Fatalf("recovered %v, want the item's panic value", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the panic, %d before", n, before)
	}
}
