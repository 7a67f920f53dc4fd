package driver

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"suifx/internal/workloads"
)

// TestResultDerived checks the per-entry memo (run under -race): one build
// per key however many callers race for it, no memo of a panicking build,
// and a fresh memo for an evicted or reset entry's replacement.
func TestResultDerived(t *testing.T) {
	ws := workloads.All()
	a, b := ws[0], ws[1]

	t.Run("one build for concurrent callers", func(t *testing.T) {
		res := NewCache().MustAnalyze(a.Name, a.Source, Options{})
		var builds atomic.Int32
		const n = 32
		start := make(chan struct{})
		got := make([]any, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = res.Derived("k", func() any {
					builds.Add(1)
					time.Sleep(5 * time.Millisecond) // let the others queue up
					return new(int)
				})
			}(i)
		}
		close(start)
		wg.Wait()
		if b := builds.Load(); b != 1 {
			t.Fatalf("%d builds for one key, want 1", b)
		}
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("caller %d got a different value", i)
			}
		}
		if v := res.Derived("other", func() any { return "o" }); v != "o" {
			t.Fatalf("a second key returned %v", v)
		}
	})

	t.Run("a panicking build is retried", func(t *testing.T) {
		res := NewCache().MustAnalyze(a.Name, a.Source, Options{})
		release := make(chan struct{})
		building := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() { panicked <- recover() }()
			res.Derived("k", func() any {
				close(building)
				<-release
				panic("build failed")
			})
		}()
		<-building
		waiter := make(chan any, 1)
		go func() { waiter <- res.Derived("k", func() any { return "second" }) }()
		close(release)
		if p := <-panicked; p != "build failed" {
			t.Fatalf("the building caller recovered %v, want its panic", p)
		}
		if v := <-waiter; v != "second" {
			t.Fatalf("the waiter got %v, want its own build's value", v)
		}
		if v := res.Derived("k", func() any { return "third" }); v != "second" {
			t.Fatalf("after the retry: %v, want the memoized second build", v)
		}
	})

	t.Run("an evicted entry's replacement builds again", func(t *testing.T) {
		c := NewCacheCap(1)
		var builds int
		build := func() any { builds++; return builds }
		first := c.MustAnalyze(a.Name, a.Source, Options{})
		first.Derived("k", build)
		if c.MustAnalyze(a.Name, a.Source, Options{}).Derived("k", build) != 1 {
			t.Fatal("a hit on the same entry rebuilt")
		}
		c.MustAnalyze(b.Name, b.Source, Options{}) // evicts a
		again := c.MustAnalyze(a.Name, a.Source, Options{})
		if again == first {
			t.Fatal("the evicted entry came back")
		}
		if v := again.Derived("k", build); v != 2 {
			t.Fatalf("the replacement entry returned %v, want a second build", v)
		}
		c.Reset()
		if v := c.MustAnalyze(a.Name, a.Source, Options{}).Derived("k", build); v != 3 {
			t.Fatalf("after Reset: %v, want a third build", v)
		}
	})
}
