package driver

import "testing"

// BenchmarkAnalyze times the whole bottom-up pass (mod/ref, then array
// summaries) on the 5k and 20k corpus tiers with the default worker pool,
// and reports what it allocates:
// `go test ./internal/driver -run '^$' -bench Analyze -benchmem`.
func BenchmarkAnalyze(b *testing.B) {
	for _, tier := range []string{"5k", "20k"} {
		b.Run(tier, func(b *testing.B) {
			prog := tierProgram(b, tier)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Analyze(prog, Options{})
			}
		})
	}
}
