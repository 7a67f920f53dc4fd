package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"suifx/internal/driver"
)

// TestServerAnalyzeHitEqualsMiss: a cache hit serves the body the miss
// rendered, byte for byte with elapsed_ms included, under every option
// combination — and the workers knob, which is not part of the verdict,
// does not change it either.
func TestServerAnalyzeHitEqualsMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, p := range pinnedPrograms() {
		for _, o := range analyzeOptions {
			req := AnalyzeRequest{SourceRef: p.ref, NoReductions: o.noReductions, Liveness: o.liveness}
			_, miss := postRaw(t, ts, "/v1/analyze", req)
			_, hit := postRaw(t, ts, "/v1/analyze", req)
			if !bytes.Equal(hit, miss) {
				t.Fatalf("%s%s: hit differs from the miss that rendered it:\n%.300s\n%.300s", p.stem, o.suffix, hit, miss)
			}
			req.Workers = 3
			if _, other := postRaw(t, ts, "/v1/analyze", req); !bytes.Equal(other, miss) {
				t.Fatalf("%s%s: workers=3 changed the body", p.stem, o.suffix)
			}
		}
	}
}

// hitAllocCeiling is 1.6x the 48 allocations of a /v1/analyze hit on the
// 600-line pinned program: request decode, cache lookup, headers and the
// recorder's copy of the body. A hit that re-runs the parallelization pass
// and re-encodes the body allocates about 14,700 times.
const hitAllocCeiling = 77

// TestServerAnalyzeHitIsLookup: once a verdict is rendered, a hit is a cache
// lookup and a write of the memoized bytes, whatever the program's size.
func TestServerAnalyzeHitIsLookup(t *testing.T) {
	s := New(Config{Cache: driver.NewCache()})
	t.Cleanup(s.Close)
	h := s.Handler()
	ref := pinnedPrograms()[3].ref
	body, err := json.Marshal(AnalyzeRequest{SourceRef: ref})
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		reply = rec.Body.Bytes()
	}
	serve() // the miss renders the verdict
	miss := reply
	allocs := testing.AllocsPerRun(20, serve)
	t.Logf("a hit allocates %.0f times", allocs)
	if allocs > hitAllocCeiling {
		t.Fatalf("a hit allocates %.0f times, ceiling %d: it does more than a lookup", allocs, hitAllocCeiling)
	}
	if !bytes.Equal(reply, miss) {
		t.Fatal("the hit's body differs from the miss's")
	}
}

// TestServerSliceSharedGraph: concurrent slices of one program share the
// cache entry's ISSA graph (built once, then only read; run under -race)
// and answer exactly the pinned bodies.
func TestServerSliceSharedGraph(t *testing.T) {
	cache := driver.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache, MaxConcurrent: 32})
	want := make([][]byte, len(pinnedSlices))
	for i, sl := range pinnedSlices {
		b, err := os.ReadFile(filepath.Join("testdata", "slice", sl.stem+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}

	const n = 16
	var wg sync.WaitGroup
	got := make([][]byte, n)
	for i := 0; i < n; i++ {
		body, err := json.Marshal(pinnedSlices[i%len(pinnedSlices)].req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/slice", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			got[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if w := want[i%len(pinnedSlices)]; !bytes.Equal(b, w) {
			t.Fatalf("slice %d (%s) = %s, want %s", i, pinnedSlices[i%len(pinnedSlices)].stem, b, w)
		}
	}

	name, src, err := SourceRef{Workload: "mdg"}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cache.Analyze(name, src, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Derived(issaKey{}, func() any {
		t.Fatal("the slices left no graph on the cache entry")
		return nil
	})
}
