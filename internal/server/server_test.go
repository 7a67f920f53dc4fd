package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"suifx/internal/driver"
	"suifx/internal/parallel"
	"suifx/internal/workloads"
)

// newTestServer builds a Server with a fresh cache (no cross-test sharing)
// and an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = driver.NewCache()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatalf("%s: non-JSON response %q", path, data)
	}
	return resp.StatusCode, fields
}

// synthSource builds a deep chain of procedures whose analysis takes long
// enough (~2ms per procedure) for timeout and cancellation tests to land
// mid-flight.
func synthSource(procs int) string {
	var b strings.Builder
	add := func(s string, args ...any) { fmt.Fprintf(&b, s+"\n", args...) }
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
	return b.String()
}

// TestServerEndpointErrors is the table-driven error contract for every
// /v1/* endpoint: malformed JSON, missing fields, unknown workloads,
// unparsable source, bad slice parameters, wrong method.
func TestServerEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"analyze malformed JSON", "/v1/analyze", `{"source": "PROGRAM`, http.StatusBadRequest},
		{"analyze empty request", "/v1/analyze", map[string]any{}, http.StatusBadRequest},
		{"analyze unknown workload", "/v1/analyze", map[string]any{"workload": "no-such"}, http.StatusNotFound},
		{"analyze unparsable source", "/v1/analyze", map[string]any{"source": "THIS IS NOT MINIF(("}, http.StatusUnprocessableEntity},
		{"slice malformed JSON", "/v1/slice", `[1,2`, http.StatusBadRequest},
		{"slice missing proc", "/v1/slice", map[string]any{"workload": "x", "line": 3}, http.StatusBadRequest},
		{"slice bad kind", "/v1/slice", map[string]any{"source": "      PROGRAM t\n      END\n", "proc": "T", "line": 1, "kind": "sideways"}, http.StatusBadRequest},
		{"slice program without var", "/v1/slice", map[string]any{"source": "      PROGRAM t\n      END\n", "proc": "T", "line": 1}, http.StatusBadRequest},
		{"profile malformed JSON", "/v1/profile", `nope`, http.StatusBadRequest},
		{"profile no source", "/v1/profile", map[string]any{}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, fields := postJSON(t, ts, tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d, want %d (body %v)", status, tc.want, fields)
			}
			if _, ok := fields["error"]; !ok {
				t.Fatalf("error response has no error field: %v", fields)
			}
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/analyze")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/analyze = %d, want 405", resp.StatusCode)
		}
	})
}

// TestServerOversizedSource: bodies past MaxBodyBytes get 413 on every
// heavy endpoint.
func TestServerOversizedSource(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := map[string]any{"source": strings.Repeat("C comment line\n", 200)}
	for _, path := range []string{"/v1/analyze", "/v1/slice", "/v1/profile", "/v1/batch", "/v1/drain"} {
		status, _ := postJSON(t, ts, path, big)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status = %d, want 413", path, status)
		}
	}
}

// TestServerAnalyzeWorkload is the happy path: the full driver result for a
// built-in workload is well-formed and self-consistent.
func TestServerAnalyzeWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	w := workloads.All()[0]
	status, fields := postJSON(t, ts, "/v1/analyze", map[string]any{"workload": w.Name})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, fields["error"])
	}
	var schedule []driver.SCC
	if err := json.Unmarshal(fields["schedule"], &schedule); err != nil {
		t.Fatal(err)
	}
	prog := w.Program()
	nprocs := 0
	for i, c := range schedule {
		nprocs += len(c.Procs)
		for _, d := range c.Deps {
			if d >= i {
				t.Fatalf("schedule not bottom-up: component %d depends on %d", i, d)
			}
		}
	}
	if nprocs != len(prog.Procs) {
		t.Fatalf("schedule covers %d procs, program has %d", nprocs, len(prog.Procs))
	}
	var summaries map[string]string
	if err := json.Unmarshal(fields["summaries"], &summaries); err != nil {
		t.Fatal(err)
	}
	if len(summaries) != len(prog.Procs) {
		t.Fatalf("summaries for %d procs, want %d", len(summaries), len(prog.Procs))
	}
	var loops []parallel.LoopVerdict
	if err := json.Unmarshal(fields["loops"], &loops); err != nil {
		t.Fatal(err)
	}
	var stats struct{ TotalLoops int }
	if err := json.Unmarshal(fields["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if len(loops) == 0 || stats.TotalLoops != len(loops) {
		t.Fatalf("loops = %d, stats.TotalLoops = %d", len(loops), stats.TotalLoops)
	}
	var modref map[string]ModRefJSON
	if err := json.Unmarshal(fields["modref"], &modref); err != nil {
		t.Fatal(err)
	}
	if len(modref) != len(prog.Procs) {
		t.Fatalf("modref for %d procs, want %d", len(modref), len(prog.Procs))
	}
}

// TestServerConcurrentIdenticalSingleflight: N identical concurrent
// requests must run the analysis exactly once — one cache miss, N-1 hits.
func TestServerConcurrentIdenticalSingleflight(t *testing.T) {
	cache := driver.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache, MaxConcurrent: 16})
	src := synthSource(8)

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"name": "sf.f", "source": src})
			resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			statuses[i] = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("cache = %d misses / %d hits, want 1 / %d (singleflight ran more than once)", st.Misses, st.Hits, n-1)
	}
}

// TestServerTimeout: an expired request deadline cancels the analysis (the
// driver abandons its SCC waves) and maps to 504.
func TestServerTimeout(t *testing.T) {
	cache := driver.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache, RequestTimeout: time.Nanosecond})
	status, fields := postJSON(t, ts, "/v1/analyze", map[string]any{"source": synthSource(4)})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, fields["error"])
	}
	// The cancelled run must not be cached as a result or an error.
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled analysis left %d cache entries", st.Entries)
	}
}

// TestServerCancellationMidAnalysis: a client abandoning a slow request
// mid-analysis neither wedges the server nor poisons the cache — the same
// request afterwards computes fresh and succeeds.
func TestServerCancellationMidAnalysis(t *testing.T) {
	cache := driver.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache})
	src := synthSource(150) // ~hundreds of ms of SCC waves

	body, _ := json.Marshal(map[string]any{"name": "cancel.f", "source": src})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	resp, err := ts.Client().Do(req)
	if err == nil {
		resp.Body.Close()
		t.Log("analysis finished before the cancel landed; continuing")
	} else if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled request took %s to return", d)
	}

	// Server stays healthy and the key is retryable.
	status, fields := postJSON(t, ts, "/v1/analyze", map[string]any{"name": "cancel.f", "source": src})
	if status != http.StatusOK {
		t.Fatalf("retry after cancellation: status %d (%s)", status, fields["error"])
	}
	if status, _ := getStats(t, ts); status != http.StatusOK {
		t.Fatalf("/v1/stats unavailable after cancellation: %d", status)
	}
}

func getStats(t *testing.T, ts *httptest.Server) (int, *StatsResponse) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &sr
}

// TestServerSlice: the §3.1 portfolio story over HTTP — the control slice
// of the guarded write contains the IF..GO TO guard the program slice of
// the read misses.
func TestServerSlice(t *testing.T) {
	const portfolio = `
      PROGRAM folio
      REAL xps(50), y(51), xp(500)
      INTEGER s, h, jj, n, nls
      n = 9
      nls = 50
      DO 2365 s = 1, n
        IF (s .NE. 1 .AND. s .NE. 5) GO TO 2355
        DO 2350 h = 1, nls
          xps(h) = y(h+1)
2350    CONTINUE
2355    CONTINUE
        DO 2360 jj = 1, nls
          xp(s+(jj-1)*n) = xps(jj)
2360    CONTINUE
2365  CONTINUE
      END
`
	_, ts := newTestServer(t, Config{})
	decode := func(fields map[string]json.RawMessage) map[string][]int {
		var procs map[string][]int
		if err := json.Unmarshal(fields["procs"], &procs); err != nil {
			t.Fatal(err)
		}
		return procs
	}
	contains := func(lines []int, want int) bool {
		for _, l := range lines {
			if l == want {
				return true
			}
		}
		return false
	}

	// Control slice of the write at line 10: must include the guard (line 8).
	status, fields := postJSON(t, ts, "/v1/slice", map[string]any{
		"source": portfolio, "proc": "folio", "line": 10, "kind": "control"})
	if status != http.StatusOK {
		t.Fatalf("control slice: status %d (%s)", status, fields["error"])
	}
	if procs := decode(fields); !contains(procs["FOLIO"], 8) {
		t.Fatalf("control slice of line 10 misses the guard line 8: %v", procs)
	}

	// Program slice of the XPS read at line 14: includes the write (10) but
	// not the guard (8) — the trap the paper's story turns on.
	status, fields = postJSON(t, ts, "/v1/slice", map[string]any{
		"source": portfolio, "proc": "folio", "var": "xps", "line": 14})
	if status != http.StatusOK {
		t.Fatalf("program slice: status %d (%s)", status, fields["error"])
	}
	procs := decode(fields)
	if !contains(procs["FOLIO"], 10) {
		t.Fatalf("program slice of xps@14 misses the write at line 10: %v", procs)
	}

	// Data slice works too and is no larger than the program slice.
	status, fields = postJSON(t, ts, "/v1/slice", map[string]any{
		"source": portfolio, "proc": "folio", "var": "xps", "line": 14, "kind": "data"})
	if status != http.StatusOK {
		t.Fatalf("data slice: status %d (%s)", status, fields["error"])
	}
	if dprocs := decode(fields); len(dprocsLines(dprocs)) > len(dprocsLines(procs)) {
		t.Fatalf("data slice larger than program slice: %v > %v", dprocs, procs)
	}
}

func dprocsLines(m map[string][]int) []int {
	var out []int
	for _, ls := range m {
		out = append(out, ls...)
	}
	return out
}

// TestServerProfile: exec-based loop profiles over HTTP.
func TestServerProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	w := workloads.All()[0]
	status, fields := postJSON(t, ts, "/v1/profile", map[string]any{"workload": w.Name})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, fields["error"])
	}
	var totalOps int64
	if err := json.Unmarshal(fields["total_ops"], &totalOps); err != nil {
		t.Fatal(err)
	}
	if totalOps <= 0 {
		t.Fatal("profile reports zero total ops")
	}
	var loops []LoopProfileJSON
	if err := json.Unmarshal(fields["loops"], &loops); err != nil {
		t.Fatal(err)
	}
	if len(loops) == 0 {
		t.Fatal("profile reports no loops")
	}
	for i := 1; i < len(loops); i++ {
		if loops[i].TotalOps > loops[i-1].TotalOps {
			t.Fatalf("loops not sorted by total ops: %v", loops)
		}
	}

	// A tiny op budget aborts the run: client error, not a hang.
	status, _ = postJSON(t, ts, "/v1/profile", map[string]any{"workload": w.Name, "max_ops": 10})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("max_ops=10: status %d, want 422", status)
	}
}

// TestServerLegacyEngineKnobs: /v1/profile and /v1/tune no longer select an
// engine. Bodies still carrying the removed `mode` / `tier` knobs — valid
// or bogus — decode leniently and answer 200 with a body byte-identical to
// the knob-free request.
func TestServerLegacyEngineKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(path string, body map[string]any) string {
		t.Helper()
		status, fields := postJSON(t, ts, path, body)
		if status != http.StatusOK {
			t.Fatalf("%s %v: status = %d (%s)", path, body, status, fields["error"])
		}
		b, _ := json.Marshal(fields)
		return string(b)
	}
	knobs := []map[string]any{
		{"mode": "tree"},
		{"tier": "register"},
		{"tier": "bogus"},
		{"mode": "quantum", "tier": "tiered"},
	}
	for _, path := range []string{"/v1/profile", "/v1/tune"} {
		base := map[string]any{"workload": "mdg"}
		if path == "/v1/tune" {
			base["max_runs"] = 2
		}
		want := post(path, base)
		for _, k := range knobs {
			body := map[string]any{}
			for key, v := range base {
				body[key] = v
			}
			for key, v := range k {
				body[key] = v
			}
			if got := post(path, body); got != want {
				t.Errorf("%s %v: body differs from the knob-free request:\n got: %s\nwant: %s", path, k, got, want)
			}
		}
	}
}

// TestServerProfileMode: profile runs execute on the VM whatever a legacy
// `mode` says, and the stats snapshot exposes the engine counters the run
// just bumped.
func TestServerProfileMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	w := workloads.All()[0]
	_, before := getStats(t, ts)
	status, fields := postJSON(t, ts, "/v1/profile", map[string]any{"workload": w.Name, "mode": "tree"})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, fields["error"])
	}
	_, sr := getStats(t, ts)
	if sr.Exec.CompiledProcs < 1 || sr.Exec.Instructions < 1 || sr.Exec.FusedInstructions < 1 {
		t.Fatalf("exec counters not visible: %+v", sr.Exec)
	}
	if sr.Exec.BytecodeRuns <= before.Exec.BytecodeRuns {
		t.Fatalf("VM run not counted: %+v", sr.Exec)
	}
	if sr.Exec.TreeRuns != before.Exec.TreeRuns {
		t.Fatalf("a legacy mode=tree request ran the tree-walker: %+v", sr.Exec)
	}
}

// TestServerProfileWorkers: the per-request parallel-execution knob. A
// workers > 1 request runs approved loops on the plan-aware engine and
// reports the schedule (critical-path ops, per-loop worker stats); repeat
// requests are deterministic; out-of-range workers is a client error.
func TestServerProfileWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	found := false
	for _, w := range workloads.All() {
		var bodies []string
		var resp ProfileResponse
		for i := 0; i < 2; i++ {
			status, fields := postJSON(t, ts, "/v1/profile",
				map[string]any{"workload": w.Name, "workers": 4})
			if status != http.StatusOK {
				t.Fatalf("%s: status = %d (%s)", w.Name, status, fields["error"])
			}
			b, _ := json.Marshal(fields)
			bodies = append(bodies, string(b))
			if i == 0 {
				if err := json.Unmarshal(b, &resp); err != nil {
					t.Fatal(err)
				}
			}
		}
		if bodies[0] != bodies[1] {
			t.Fatalf("%s: parallel profile not deterministic:\n%s\n%s", w.Name, bodies[0], bodies[1])
		}
		if len(resp.ParallelLoops) == 0 {
			continue
		}
		found = true
		if resp.Workers != 4 {
			t.Fatalf("%s: workers = %d, want 4", w.Name, resp.Workers)
		}
		if resp.CriticalPathOps <= 0 || resp.CriticalPathOps >= resp.TotalOps {
			t.Fatalf("%s: critical_path_ops %d not in (0, %d)", w.Name, resp.CriticalPathOps, resp.TotalOps)
		}
		for _, pl := range resp.ParallelLoops {
			if pl.Invocations < 1 || pl.Workers < 1 || pl.WorkerOps < pl.CritOps {
				t.Fatalf("%s: implausible parallel loop record %+v", w.Name, pl)
			}
		}
		break
	}
	if !found {
		t.Fatal("no workload produced a parallel loop under workers=4")
	}

	status, fields := postJSON(t, ts, "/v1/profile",
		map[string]any{"workload": workloads.All()[0].Name, "workers": 65})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("workers=65: status = %d (%s), want 422", status, fields["error"])
	}

	// The run above bumped the parallel-engine counters now visible in stats.
	_, sr := getStats(t, ts)
	if sr.Exec.ParallelLoopRuns < 1 || sr.Exec.CompiledViews < 1 {
		t.Fatalf("parallel counters not visible: %+v", sr.Exec)
	}
}

// TestServerStats: counters move, the cache is visible, expvar's "suifxd"
// var carries the same snapshot.
func TestServerStats(t *testing.T) {
	cache := driver.NewCache()
	_, ts := newTestServer(t, Config{Cache: cache, MaxConcurrent: 7})
	w := workloads.All()[0]
	if status, _ := postJSON(t, ts, "/v1/analyze", map[string]any{"workload": w.Name}); status != 200 {
		t.Fatalf("analyze failed: %d", status)
	}
	status, sr := getStats(t, ts)
	if status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	if sr.Cache.Misses < 1 || sr.Cache.Entries < 1 {
		t.Fatalf("cache stats not visible: %+v", sr.Cache)
	}
	if sr.MaxConcurrent != 7 {
		t.Fatalf("max_concurrent = %d, want 7", sr.MaxConcurrent)
	}
	ep, ok := sr.Endpoints["analyze"]
	if !ok || ep.Requests < 1 {
		t.Fatalf("analyze endpoint metrics missing: %+v", sr.Endpoints)
	}
	var totalBucket int64
	for _, b := range ep.LatencyBuckets {
		totalBucket += b
	}
	if totalBucket != ep.Requests {
		t.Fatalf("latency buckets sum %d != requests %d", totalBucket, ep.Requests)
	}

	resp, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !bytes.Contains(data, []byte(`"suifxd"`)) {
		t.Fatalf("/debug/vars (%d) missing suifxd snapshot", resp.StatusCode)
	}
}

// TestServerPanicRecovery: a panicking handler becomes a 500 and bumps the
// panic counter; the middleware is exercised directly with an injected
// handler, since no production endpoint should panic.
func TestServerPanicRecovery(t *testing.T) {
	s := New(Config{Cache: driver.NewCache()})
	h := s.endpoint("stats", false, func(ctx context.Context, r *http.Request) (any, error) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := s.m.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("body %q lacks the recovery message", rec.Body.String())
	}
}

// arenaBombs are few-hundred-byte programs whose storage is beyond
// exec.MaxArenaCells: one by its static layout (80 GB), one (2.4 MB static)
// only once 64 workers each get a bank for the privatized T.
var arenaBombs = []struct{ name, source string }{
	{"static", `
      PROGRAM main
      REAL a(100000,100000)
      INTEGER i
      DO 10 i = 1, 10
        a(i,1) = i
10    CONTINUE
      END
`},
	{"banks", `
      PROGRAM main
      REAL t(300000), b(100)
      INTEGER i, j
      DO 10 i = 1, 100
        DO 5 j = 1, 10
          t(j) = i + j
5       CONTINUE
        DO 7 j = 1, 10
          b(i) = b(i) + t(j)
7       CONTINUE
10    CONTINUE
      END
`},
}

// TestServerArenaCap: every endpoint that executes a program answers 422 to
// one over the arena cap, and the refusal comes before the allocation — the
// whole request allocates less than 8 MB.
func TestServerArenaCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bomb := range arenaBombs {
		for _, c := range []struct {
			path string
			body map[string]any
		}{
			{"/v1/profile", map[string]any{"workers": 64}},
			{"/v1/tune", map[string]any{"default_workers": 64}},
			{"/v1/session", map[string]any{}},
		} {
			if bomb.name == "banks" && c.path == "/v1/session" {
				continue // its profiling run is sequential: no banks
			}
			path, body := c.path, c.body
			body["name"], body["source"] = "bomb.f", bomb.source
			t.Run(bomb.name+path, func(t *testing.T) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				status, fields := postJSON(t, ts, path, body)
				runtime.ReadMemStats(&m1)
				if status != http.StatusUnprocessableEntity {
					t.Fatalf("status = %d, want 422 (%s)", status, fields["error"])
				}
				if !strings.Contains(string(fields["error"]), "program storage exceeds") {
					t.Errorf("error = %s, want the arena-cap refusal", fields["error"])
				}
				if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 8<<20 {
					t.Errorf("the rejected request allocated %d MB, want < 8", grew>>20)
				}
			})
		}
	}
}
