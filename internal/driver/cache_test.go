package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"suifx/internal/minif"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// TestCacheLRUEviction checks the bounding policy: a capacity-2 cache keeps
// the two most recently *used* entries (a hit refreshes recency) and counts
// every eviction.
func TestCacheLRUEviction(t *testing.T) {
	ws := workloads.All()
	if len(ws) < 3 {
		t.Skip("needs at least 3 workloads")
	}
	c := NewCacheCap(2)
	a, b, d := ws[0], ws[1], ws[2]

	c.MustAnalyze(a.Name, a.Source, Options{})
	c.MustAnalyze(b.Name, b.Source, Options{})
	// Touch a so b is now least recently used.
	c.MustAnalyze(a.Name, a.Source, Options{})
	// Inserting d must evict b, not a.
	c.MustAnalyze(d.Name, d.Source, Options{})

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after 3 inserts into cap-2 cache = %+v, want 1 eviction and 2 entries", st)
	}
	c.MustAnalyze(a.Name, a.Source, Options{}) // still cached
	c.MustAnalyze(b.Name, b.Source, Options{}) // evicted: must re-analyze (a miss)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses / 2 evictions", st)
	}
}

// TestCacheCapacityOneByteIdentical is the testing/quick property from the
// issue: even a capacity-1 cache — which thrashes on every alternation —
// returns byte-identical analyses to uncached Analyze, for any request
// sequence over the workload set.
func TestCacheCapacityOneByteIdentical(t *testing.T) {
	ws := workloads.All()
	uncached := make(map[string]string, len(ws))
	for _, w := range ws {
		uncached[w.Name] = dump(summary.Analyze(w.Fresh()))
	}
	c := NewCacheCap(1)
	property := func(picks []uint8) bool {
		if len(picks) > 8 {
			picks = picks[:8] // analyses are cheap but not free
		}
		for _, p := range picks {
			w := ws[int(p)%len(ws)]
			res, err := c.Analyze(w.Name, w.Source, Options{})
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				return false
			}
			if got := dump(res.Sum); got != uncached[w.Name] {
				t.Errorf("%s: cached analysis differs from uncached", w.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", st.Entries)
	}
}

// TestCacheResetInFlightRace is the regression test for the Reset-vs-
// singleflight race: a Reset while an Analyze is in flight must not let the
// old run publish into (or remove from) the new generation. Run under
// -race. The gate hook pauses the in-flight analysis so the Reset and the
// new-generation request deterministically overlap it.
func TestCacheResetInFlightRace(t *testing.T) {
	w := workloads.All()[0]
	c := NewCacheCap(4)

	started := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	opt := Options{onProc: func(wave int, proc string) {
		gateOnce.Do(func() {
			close(started)
			<-release
		})
	}}

	firstDone := make(chan *Result, 1)
	go func() {
		res, _ := c.AnalyzeCtx(context.Background(), w.Name, w.Source, opt)
		firstDone <- res
	}()
	<-started

	c.Reset()

	// New generation: same key, computed independently of the gated run.
	second, err := c.Analyze(w.Name, w.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	first := <-firstDone
	if first == nil || second == nil {
		t.Fatal("both generations must produce results")
	}
	if first == second {
		t.Fatal("post-Reset request shared the pre-Reset in-flight result")
	}

	// The old run's completion handler must not have evicted or replaced
	// the new generation's entry: a third request is a pure hit on second.
	third, err := c.Analyze(w.Name, w.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Fatal("old-generation completion disturbed the new generation's entry")
	}
}

// parkedLeader starts an AnalyzeCtx run under a cancellable context and
// parks it on the onProc hook until that context ends. It returns once the
// run is in flight. Workers: 1 makes abandonment deterministic: the
// sequential path re-checks ctx before every component, so the wave after
// the gated one always observes the cancellation.
func parkedLeader(c *Cache, name, src string) (cancel context.CancelFunc, done <-chan error) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var gateOnce sync.Once
	opt := Options{Workers: 1, onProc: func(wave int, proc string) {
		gateOnce.Do(func() { close(started) })
		<-ctx.Done() // hold the run until cancellation
	}}
	errc := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeCtx(ctx, name, src, opt)
		errc <- err
	}()
	<-started
	return cancel, errc
}

// TestCacheCancelledLeaderHandsOver is the singleflight regression: a
// waiter that joined a run whose caller is then cancelled must not inherit
// that cancellation. With its own context live it re-enters as the new
// running caller — one extra miss — and gets a result.
func TestCacheCancelledLeaderHandsOver(t *testing.T) {
	w := workloads.All()[0]
	c := NewCache()
	cancel, leader := parkedLeader(c, w.Name, w.Source)

	type out struct {
		res *Result
		err error
	}
	waiter := make(chan out, 1)
	go func() {
		res, err := c.AnalyzeCtx(context.Background(), w.Name, w.Source, Options{})
		waiter <- out{res, err}
	}()
	for c.Stats().Hits < 1 { // the waiter is registered on the doomed entry
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if o := <-waiter; o.err != nil || o.res == nil {
		t.Fatalf("waiter with a live context: res = %v, err = %v; want a result", o.res, o.err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("misses = %d, entries = %d; want the leader's miss plus the waiter's re-entry, one cached entry",
			st.Misses, st.Entries)
	}
}

// TestCacheCancelledRunSharedAndRetried: of the waiters on a cancelled run,
// those whose own context also ended get their own error; the live ones
// retry the key together — one new run, shared — and all succeed.
func TestCacheCancelledRunSharedAndRetried(t *testing.T) {
	w := workloads.All()[0]
	c := NewCache()
	cancel, leader := parkedLeader(c, w.Name, w.Source)

	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.AnalyzeCtx(context.Background(), w.Name, w.Source, Options{})
			errs <- err
		}()
	}
	dctx, dcancel := context.WithCancel(context.Background())
	doomed := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeCtx(dctx, w.Name, w.Source, Options{})
		doomed <- err
	}()
	// Every waiter registers on the in-flight entry as a cache hit; wait for
	// all of them before cancelling, so each one exercises the hand-over.
	for c.Stats().Hits < waiters+1 {
		time.Sleep(time.Millisecond)
	}
	dcancel()
	if err := <-doomed; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter with its own cancelled context: err = %v, want context.Canceled", err)
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("live waiter %d: err = %v, want a result", i, err)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("misses = %d, entries = %d; want one shared retry and one cached entry", st.Misses, st.Entries)
	}
}

// TestCacheWaiterOwnContext: a waiter whose own context ends gets its own
// error while the computing run continues and succeeds for everyone else.
func TestCacheWaiterOwnContext(t *testing.T) {
	w := workloads.All()[0]
	c := NewCache()

	started := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	opt := Options{onProc: func(wave int, proc string) {
		gateOnce.Do(func() { close(started) })
		<-release
	}}

	ownerDone := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeCtx(context.Background(), w.Name, w.Source, opt)
		ownerDone <- err
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	if _, err := c.AnalyzeCtx(wctx, w.Name, w.Source, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner run failed after a waiter left: %v", err)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want the completed run cached", st.Entries)
	}
}

// synthSource builds a deep chain of procedures (P1 calls P2 calls ... PN),
// each with a loop nest over a shared array — a long SCC chain whose waves
// a cancellation test can interrupt mid-schedule.
func synthSource(procs int) string {
	var b []byte
	add := func(s string, args ...any) { b = append(b, fmt.Sprintf(s+"\n", args...)...) }
	add("      PROGRAM synth")
	add("      REAL a(100)")
	add("      CALL p1(a)")
	add("      END")
	for i := 1; i <= procs; i++ {
		add("      SUBROUTINE p%d(a)", i)
		add("      REAL a(100)")
		add("      INTEGER i")
		add("      DO 10 i = 1, 99")
		add("        a(i) = a(i) + a(i+1)")
		add("10    CONTINUE")
		if i < procs {
			add("      CALL p%d(a)", i+1)
		}
		add("      END")
	}
	return string(b)
}

// TestAnalyzeCtxCancelStopsWaves: cancelling mid-schedule abandons the
// remaining SCC waves — the analysis returns the context error and analyzes
// strictly fewer procedures than the program has.
func TestAnalyzeCtxCancelStopsWaves(t *testing.T) {
	const procs = 60
	prog, err := minif.Parse("synth", synthSource(procs))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var analyzed int
	var mu sync.Mutex
	opt := Options{Workers: 1, onProc: func(wave int, proc string) {
		mu.Lock()
		analyzed++
		if analyzed == 5 {
			cancel()
		}
		mu.Unlock()
	}}
	a, err := AnalyzeCtx(ctx, prog, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a != nil {
		t.Fatal("cancelled analysis must return a nil result")
	}
	mu.Lock()
	n := analyzed
	mu.Unlock()
	// Two waves over procs+1 procedures would analyze 2*(procs+1) times.
	if n >= procs {
		t.Fatalf("analyzed %d procedures after cancellation at 5; waves were not abandoned", n)
	}
}
