package liveness_test

import (
	"testing"

	"suifx/internal/liveness"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// BenchmarkAblationLivenessVariant compares the three §5.2.3 algorithm
// variants' analysis cost.
func BenchmarkAblationLivenessVariant(b *testing.B) {
	sum := summary.Analyze(workloads.ByName("hydro").Fresh())
	for _, v := range []liveness.Variant{liveness.FlowInsensitive, liveness.OneBit, liveness.Full} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				liveness.Analyze(sum, v)
			}
		})
	}
}
