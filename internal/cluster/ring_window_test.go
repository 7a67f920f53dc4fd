package cluster

import (
	"fmt"
	"testing"
	"time"
)

// TestOwnerDuringEjectionWindow routes keys in the window between the
// prober's two steps: a shard's health flag is already down but the ring
// still names it. Every key must go to a live shard — the one that owns it
// once the ring is rebuilt — not answer "no healthy workers" while another
// worker is up.
func TestOwnerDuringEjectionWindow(t *testing.T) {
	c, err := New(Config{
		Workers:     []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"},
		ProbePeriod: time.Hour, // the test plays the prober
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	down := c.shards[c.order[1]]
	down.healthy.Store(false) // probeOnce's step; rebuildRing has not run

	stale := c.ring.Load()
	rebuilt := BuildRing([]string{c.order[0], c.order[2]}, c.cfg.Replicas, 2)
	moved := 0
	for i := 0; i < 200; i++ {
		key := sessionKey(fmt.Sprintf("s%d", i))
		if stale.Owner(key) == down.url {
			moved++
		}
		got := c.healthyOwners(key, 1)
		if len(got) != 1 || got[0].url != rebuilt.Owner(key) {
			t.Fatalf("key %q during the window: owners %v, want [%s]", key, urls(got), rebuilt.Owner(key))
		}
		all := c.healthyOwners(key, 3)
		if want := rebuilt.OwnerN(key, 3); fmt.Sprint(urls(all)) != fmt.Sprint(want) {
			t.Fatalf("key %q failover order %v, want %v", key, urls(all), want)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the ejected shard; the test checked nothing")
	}
}

func urls(shs []*shard) []string {
	var out []string
	for _, sh := range shs {
		out = append(out, sh.url)
	}
	return out
}
