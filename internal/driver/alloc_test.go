package driver

import (
	"runtime"
	"testing"
)

// TestAnalyzeAllocations bounds the bottom-up pass on the 5k tier (one
// worker, so nothing but the algorithm allocates) by an exact count. With
// lin.Expr a map per expression the pass made 1,998,991 allocations; as a
// sorted term vector it makes about 1,110,000. The limit is 1.6 times that,
// not the 2.4 times of the sibling guards in depend and liveness, so that it
// still fails on the map representation.
func TestAnalyzeAllocations(t *testing.T) {
	prog := tierProgram(t, "5k")
	const limit = 1_750_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Analyze(prog, Options{Workers: 1})
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > limit {
		t.Fatalf("driver.Analyze on tier 5k made %d allocations, limit %d", got, limit)
	}
}
