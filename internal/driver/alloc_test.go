package driver

import (
	"runtime"
	"testing"
)

// TestAnalyzeAllocations bounds the bottom-up pass on the 5k tier (one
// worker, so nothing but the algorithm allocates) by an exact count. With
// lin.Expr a map per expression the pass made 1,998,991 allocations, as a
// sorted term vector 1,109,739, and about 543,000 once sections, access
// records and tuples were shared instead of copied; with Fourier–Motzkin in
// pooled scratch storage about 339,000. Now that T, the meet and the loop
// closure hand back what they already share, a statement list composes into
// one tuple and the closure's must-write bookkeeping builds no throw-away
// systems, it makes about 241,500 (about 268,000 under the race detector,
// which drops pooled scratch). The limit is under the 339,000 of the pass
// that rebuilt those values, so it fails with the rebuilding back.
func TestAnalyzeAllocations(t *testing.T) {
	prog := tierProgram(t, "5k")
	const limit = 300_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Analyze(prog, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > limit {
		t.Fatalf("driver.Analyze on tier 5k made %d allocations, limit %d", got, limit)
	}
}
