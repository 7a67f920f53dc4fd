package driver

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/summary"
)

// Result is a memoized whole-program analysis: the parsed program, its
// summary analysis, and the content hash that keys it. Results are shared
// between callers, which is safe because every consumer of an Analysis
// (dependence testing, parallelization, liveness, the explorer's read
// paths) treats it as read-only.
type Result struct {
	Prog *ir.Program
	Sum  *summary.Analysis
	// SourceHash is the cache key: sha256 over the program name and source.
	SourceHash string

	mu      sync.Mutex
	derived map[any]*derivedSlot
}

// derivedSlot is one Derived key's singleflight slot: the building caller
// fills val and ok, then closes done.
type derivedSlot struct {
	done chan struct{}
	val  any
	ok   bool // build returned; false after a panic
}

// Derived returns the value build computes from this Result, building it at
// most once per key: concurrent first callers wait for one build, later
// callers get its value. A build that panics is not memoized — the panic
// propagates to its caller and the next call (or a waiter) builds again.
// The memo lives exactly as long as the Result: when the cache evicts or
// resets the entry, the next request analyzes afresh into a new Result with
// an empty memo, so the cache capacity is its only bound. build must not
// call Derived on the same Result with the same key.
func (r *Result) Derived(key any, build func() any) any {
	for {
		r.mu.Lock()
		s := r.derived[key]
		if s == nil {
			s = &derivedSlot{done: make(chan struct{})}
			if r.derived == nil {
				r.derived = map[any]*derivedSlot{}
			}
			r.derived[key] = s
			r.mu.Unlock()
			return r.build(key, s, build)
		}
		r.mu.Unlock()
		<-s.done
		if s.ok {
			return s.val
		}
		// That build panicked and removed its slot: take a turn.
	}
}

func (r *Result) build(key any, s *derivedSlot, build func() any) any {
	defer func() {
		if !s.ok {
			r.mu.Lock()
			delete(r.derived, key)
			r.mu.Unlock()
		}
		close(s.done)
	}()
	s.val = build()
	s.ok = true
	return s.val
}

// DefaultCacheCapacity bounds Shared() and NewCache(): enough for every
// built-in workload plus a healthy working set of ad-hoc sources, small
// enough that a long-lived suifxd serving arbitrary programs cannot grow
// without bound.
const DefaultCacheCapacity = 128

// Cache memoizes analysis results by source content hash, bounded to a
// fixed number of entries with LRU eviction. Concurrent callers asking for
// the same program share one analysis run (singleflight per entry). A
// cancelled run's entry is dropped, and its waiters whose own contexts are
// still live retry from scratch instead of inheriting the cancellation.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*cacheEntry
	order     *list.List // front = most recently used
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one singleflight slot. The computing goroutine fills res/err
// and then closes done; everyone else blocks on done (or their own ctx).
// complete is written under Cache.mu, so eviction can skip in-flight runs.
type cacheEntry struct {
	key      string
	elem     *list.Element
	done     chan struct{}
	complete bool
	res      *Result
	err      error
}

// NewCache returns an empty cache with DefaultCacheCapacity.
func NewCache() *Cache { return NewCacheCap(DefaultCacheCapacity) }

// NewCacheCap returns an empty cache holding at most capacity entries
// (<= 0 means DefaultCacheCapacity).
func NewCacheCap(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{capacity: capacity, entries: map[string]*cacheEntry{}, order: list.New()}
}

var shared = NewCache()

// Shared returns the process-wide cache used by the experiment drivers and
// commands, so repeated table regenerations reuse summaries instead of
// re-deriving them.
func Shared() *Cache { return shared }

// Key returns the cache key for a named source text.
func Key(name, src string) string {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// Analyze parses and analyzes the named source, memoizing by content hash:
// the second request for identical source returns the first run's Result
// without re-parsing or re-analyzing.
func (c *Cache) Analyze(name, src string, opt Options) (*Result, error) {
	return c.AnalyzeCtx(context.Background(), name, src, opt)
}

// AnalyzeCtx is Analyze with cancellation. The first caller for a key runs
// the parse+analysis under its own ctx; concurrent callers for the same key
// wait for that run. A waiter whose own ctx ends returns its ctx error and
// leaves the run going for the others. If the running caller's ctx ends,
// the run is abandoned and the entry removed; a waiter whose own ctx is
// still live then re-enters — the first becomes the new running caller, the
// rest wait on it — so one caller's cancellation never fails another's
// request.
func (c *Cache) AnalyzeCtx(ctx context.Context, name, src string, opt Options) (*Result, error) {
	key := Key(name, src)

	c.mu.Lock()
	for e := c.entries[key]; e != nil; e = c.entries[key] {
		c.hits.Add(1)
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !isCtxErr(e.err) {
			return e.res, e.err
		}
		// The run died of its caller's ctx, not ours — unless ours ended too.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.misses.Add(1)
	c.evictLocked()
	c.mu.Unlock()

	e.res, e.err = c.compute(ctx, name, src, opt)

	c.mu.Lock()
	if isCtxErr(e.err) {
		// Cancelled, not failed: drop the entry so a later request retries.
		// Deterministic failures (parse errors) stay cached.
		c.removeLocked(e)
	}
	e.complete = true
	c.mu.Unlock()
	close(e.done)
	return e.res, e.err
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (c *Cache) compute(ctx context.Context, name, src string, opt Options) (*Result, error) {
	prog, err := minif.Parse(name, src)
	if err != nil {
		return nil, fmt.Errorf("driver: parse %s: %w", name, err)
	}
	sum, err := AnalyzeCtx(ctx, prog, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Prog: prog, Sum: sum, SourceHash: Key(name, src)}, nil
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its capacity. In-flight entries are never evicted — that would break
// the singleflight guarantee for requests arriving mid-run — so the cache
// can transiently exceed capacity while many distinct programs are being
// analyzed at once.
func (c *Cache) evictLocked() {
	for el := c.order.Back(); el != nil && len(c.entries) > c.capacity; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.complete {
			c.removeLocked(e)
			c.evictions.Add(1)
		}
		el = prev
	}
}

// removeLocked unlinks e if it is still the current entry for its key. The
// identity check is the Reset-race guard: a run that finishes after a Reset
// (or after being superseded) must not disturb the new generation's entry.
func (c *Cache) removeLocked(e *cacheEntry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
		c.order.Remove(e.elem)
	}
}

// MustAnalyze is Analyze for known-good workload sources.
func (c *Cache) MustAnalyze(name, src string, opt Options) *Result {
	res, err := c.Analyze(name, src, opt)
	if err != nil {
		panic(err)
	}
	return res
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// Stats reports cache counters since creation plus current occupancy.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	capacity := c.capacity
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Capacity:  capacity,
	}
}

// Reset drops all entries (test hook). In-flight runs keep computing for
// their current waiters but can no longer touch the new generation: their
// completion handler's identity check (removeLocked) no-ops, and requests
// after the Reset start fresh entries.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.entries = map[string]*cacheEntry{}
	c.order = list.New()
	c.mu.Unlock()
}
