package cluster

import (
	"net/http"
	"testing"
)

// TestDefaultTransportKeepsOneIdleConnPerSlot: the proxy transport must keep
// as many idle connections per worker as the coordinator allows requests in
// flight there, or a -max-conns-per-shard above the default re-dials the
// difference on every burst.
func TestDefaultTransportKeepsOneIdleConnPerSlot(t *testing.T) {
	for _, tc := range []struct{ set, want int }{{0, DefaultMaxConnsPerShard}, {32, 32}, {2, 2}} {
		cfg := Config{Workers: []string{"http://127.0.0.1:1"}, MaxConnsPerShard: tc.set}.withDefaults()
		tr, ok := cfg.Client.Transport.(*http.Transport)
		if !ok {
			t.Fatalf("default client transport is %T, want *http.Transport", cfg.Client.Transport)
		}
		if cfg.MaxConnsPerShard != tc.want || tr.MaxIdleConnsPerHost != tc.want {
			t.Errorf("MaxConnsPerShard %d: defaulted to %d in flight, %d idle per host; want %d of each",
				tc.set, cfg.MaxConnsPerShard, tr.MaxIdleConnsPerHost, tc.want)
		}
	}
}
