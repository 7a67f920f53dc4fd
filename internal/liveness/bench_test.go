package liveness_test

import (
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/liveness"
	"suifx/internal/minif"
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

// BenchmarkScalarOracle compares the Full pass with the pass restricted to
// what a scalar question reads (the parallelizer's default) on tier 20k.
func BenchmarkScalarOracle(b *testing.B) {
	tier, _ := corpus.TierByName("20k")
	p := tier.Generate()
	sum := summary.Analyze(minif.MustParse(p.Name, p.Source))
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			liveness.Analyze(sum, liveness.Full)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			liveness.ScalarOracle(sum)
		}
	})
}
