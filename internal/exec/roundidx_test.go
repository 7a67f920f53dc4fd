package exec

import (
	"math"
	"testing"
)

// roundIdxEdges are the inputs where a shortcut past math.Round could
// differ: signed zeros and halves, integral values at the edges of exact
// float64 integers (±2^53) and of int64 (±2^63), the first non-integral
// values below them, NaN and the infinities.
func roundIdxEdges() []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, m := range []float64{0.5, 1.5, 2.5, 1, 2, 3, 0.49999999999999994} {
		xs = append(xs, m, -m)
	}
	for _, e := range []float64{1 << 52, 1 << 53, 1 << 63} {
		for _, x := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)), e - 1, e + 1, e - 0.5, e - 1.5} {
			xs = append(xs, x, -x)
		}
	}
	return append(xs, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64)
}

// TestRoundIdxMatchesRound holds the VM's subscript rounding to the
// conversion it replaced, bit for bit, on every edge case.
func TestRoundIdxMatchesRound(t *testing.T) {
	for _, x := range roundIdxEdges() {
		if got, want := roundIdx(x), int64(math.Round(x)); got != want {
			t.Errorf("roundIdx(%v [%#x]) = %d, want %d", x, math.Float64bits(x), got, want)
		}
	}
}

// FuzzRoundIdx checks roundIdx against int64(math.Round(x)) over arbitrary
// float64 bit patterns.
func FuzzRoundIdx(f *testing.F) {
	for _, x := range roundIdxEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := roundIdx(x), int64(math.Round(x)); got != want {
			t.Errorf("roundIdx(%v [%#x]) = %d, want %d", x, bits, got, want)
		}
	})
}
