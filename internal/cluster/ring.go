// Package cluster turns N independent suifxd workers into one analysis
// service: a coordinator that speaks the worker wire contract verbatim,
// consistent-hash shards programs and sessions across the healthy workers,
// retries transient failures, hedges idempotent analyze calls, fans corpus
// batches across the fleet, and — when membership changes — rebalances live
// Guru sessions by draining them from their old shard and replaying them on
// the new owner (the /v1/drain protocol).
//
// What crosses the wire is deliberately small: requests, JSON results, and
// drained session scripts (source + options + accepted assertions) — never
// ASTs or analysis state. Workers stay oblivious to the cluster; each is
// exactly the single-node server, so a coordinator with one worker and a
// bare worker are byte-for-byte interchangeable.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per member. 64 vnodes keep the
// max/min load ratio within a few percent for small clusters while the ring
// stays tiny (N*64 points).
const DefaultReplicas = 64

// Ring is an immutable consistent-hash ring over the current healthy
// members. Membership changes build a new Ring with a bumped generation;
// lookups never lock.
type Ring struct {
	gen     uint64
	hashes  []uint64 // sorted vnode positions
	owners  []string // owners[i] owns hashes[i]
	members []string // sorted distinct members
}

// BuildRing places every member at `replicas` virtual points.
func BuildRing(members []string, replicas int, gen uint64) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	r := &Ring{gen: gen, members: ms}
	for _, m := range ms {
		for i := 0; i < replicas; i++ {
			r.hashes = append(r.hashes, hashKey(fmt.Sprintf("%s#%d", m, i)))
			r.owners = append(r.owners, m)
		}
	}
	sort.Sort(byHash{r})
	return r
}

type byHash struct{ r *Ring }

func (b byHash) Len() int           { return len(b.r.hashes) }
func (b byHash) Less(i, j int) bool { return b.r.hashes[i] < b.r.hashes[j] }
func (b byHash) Swap(i, j int) {
	b.r.hashes[i], b.r.hashes[j] = b.r.hashes[j], b.r.hashes[i]
	b.r.owners[i], b.r.owners[j] = b.r.owners[j], b.r.owners[i]
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	// FNV-1a alone has weak avalanche on short, near-identical strings — the
	// "<member>#<i>" vnode keys land clustered, skewing a 2-member ring as
	// far as 74/26 no matter how many replicas. The murmur3 fmix64 finalizer
	// restores uniform vnode placement.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Gen is the ring's generation (bumped on every membership change).
func (r *Ring) Gen() uint64 { return r.gen }

// Owner returns the member owning the key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	o := r.OwnerN(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// OwnerN returns up to n distinct members in ring order starting at the
// key's position: the owner first, then the failover/hedge candidates.
func (r *Ring) OwnerN(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	i := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for k := 0; k < len(r.hashes) && len(out) < n; k++ {
		owner := r.owners[(i+k)%len(r.hashes)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}
