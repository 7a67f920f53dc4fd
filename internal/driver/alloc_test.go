package driver

import (
	"runtime"
	"testing"
)

// TestAnalyzeAllocations bounds the bottom-up pass on the 5k tier (one
// worker, so nothing but the algorithm allocates) by an exact count. With
// lin.Expr a map per expression the pass made 1,998,991 allocations, as a
// sorted term vector 1,109,739, and about 543,000 once sections, access
// records and tuples were shared instead of copied; now that Fourier–Motzkin
// runs in pooled scratch storage it makes about 339,000. The limit is under
// 1.5 times that, so that it fails with the per-step systems back.
func TestAnalyzeAllocations(t *testing.T) {
	prog := tierProgram(t, "5k")
	const limit = 500_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Analyze(prog, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > limit {
		t.Fatalf("driver.Analyze on tier 5k made %d allocations, limit %d", got, limit)
	}
}
