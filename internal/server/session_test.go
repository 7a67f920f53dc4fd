package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"suifx/internal/driver"
)

// doJSON issues a bodyless request (GET/DELETE) and decodes the JSON reply.
func doJSON(t *testing.T, ts *httptest.Server, method, path string) (int, map[string]json.RawMessage) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
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
		t.Fatalf("%s %s: non-JSON response %q", method, path, data)
	}
	return resp.StatusCode, fields
}

func createSession(t *testing.T, ts *httptest.Server, body any) string {
	t.Helper()
	status, fields := postJSON(t, ts, "/v1/session", body)
	if status != http.StatusOK {
		t.Fatalf("session create: status %d (%v)", status, fields)
	}
	var id string
	if err := json.Unmarshal(fields["id"], &id); err != nil || id == "" {
		t.Fatalf("session create returned no id: %v", fields)
	}
	return id
}

// TestSessionRoutes walks the full dialogue over the wire: create → guru →
// rejected assert → accepted assert (incremental stats + re-ranked list) →
// why → slice → events → stats → delete.
func TestSessionRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts, map[string]any{"workload": "mdg"})

	status, fields := doJSON(t, ts, "GET", "/v1/session/"+id+"/guru")
	if status != http.StatusOK {
		t.Fatalf("guru: status %d (%v)", status, fields)
	}
	var targets []struct {
		Loop    string `json:"loop"`
		DynDeps int64  `json:"dyn_deps"`
	}
	if err := json.Unmarshal(fields["targets"], &targets); err != nil {
		t.Fatal(err)
	}
	hasInterf := false
	for _, tg := range targets {
		hasInterf = hasInterf || (tg.Loop == "INTERF/1000" && tg.DynDeps == 0)
	}
	if !hasInterf {
		t.Fatalf("guru targets %v missing INTERF/1000 with zero dynamic deps", targets)
	}

	// A contradicted-by-reality assertion is an in-band rejection (200).
	status, fields = postJSON(t, ts, "/v1/session/"+id+"/assert",
		map[string]any{"kind": "independent", "loop": "MDG/2000", "var": "VM"})
	if status != http.StatusOK {
		t.Fatalf("rejected assert: status %d (%v)", status, fields)
	}
	var accepted bool
	json.Unmarshal(fields["accepted"], &accepted)
	if accepted {
		t.Fatal("independent claim on a loop with observed dynamic deps was accepted")
	}

	// The paper's unlocking assertion.
	status, fields = postJSON(t, ts, "/v1/session/"+id+"/assert",
		map[string]any{"kind": "private", "loop": "INTERF/1000", "var": "RL"})
	if status != http.StatusOK {
		t.Fatalf("assert: status %d (%v)", status, fields)
	}
	json.Unmarshal(fields["accepted"], &accepted)
	if !accepted {
		t.Fatalf("private RL assertion rejected: %v", fields)
	}
	// Assertions are loop-scoped: accepted, no summary recomputed, and the
	// asserted loop leaves the re-ranked worklist.
	var re struct {
		Recomputed int `json:"recomputed"`
		Reused     int `json:"reused"`
	}
	if err := json.Unmarshal(fields["reanalysis"], &re); err != nil {
		t.Fatal(err)
	}
	if re.Recomputed != 0 || re.Reused == 0 {
		t.Fatalf("reanalysis %+v: an assertion must recompute no summary", re)
	}
	var guru struct {
		Targets []struct {
			Loop string `json:"loop"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(fields["guru"], &guru); err != nil {
		t.Fatal(err)
	}
	for _, tg := range guru.Targets {
		if tg.Loop == "INTERF/1000" {
			t.Fatal("INTERF/1000 still a Guru target after the unlocking assertion")
		}
	}

	status, fields = doJSON(t, ts, "GET", "/v1/session/"+id+"/why?loop=MDG/2000")
	if status != http.StatusOK {
		t.Fatalf("why: status %d (%v)", status, fields)
	}
	if _, ok := fields["verdict"]; !ok {
		t.Fatalf("why response has no verdict: %v", fields)
	}

	status, fields = postJSON(t, ts, "/v1/session/"+id+"/slice",
		map[string]any{"kind": "program", "proc": "INTERF", "var": "RL", "line": 37})
	if status != http.StatusOK {
		t.Fatalf("slice: status %d (%v)", status, fields)
	}
	var procs map[string][]int
	if err := json.Unmarshal(fields["procs"], &procs); err != nil || len(procs) == 0 {
		t.Fatalf("slice returned no lines: %v", fields)
	}

	status, fields = doJSON(t, ts, "GET", "/v1/session/"+id+"/events")
	if status != http.StatusOK {
		t.Fatalf("events: status %d", status)
	}
	var events []struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(fields["events"], &events); err != nil || len(events) < 4 {
		t.Fatalf("event log too short: %v", fields)
	}

	_, sr := getStats(t, ts)
	if sr.Sessions.Live != 1 || sr.Sessions.AssertsAccepted != 1 || sr.Sessions.AssertsRejected != 1 {
		t.Fatalf("session stats = %+v, want 1 live / 1 accepted / 1 rejected", sr.Sessions)
	}

	if status, _ := doJSON(t, ts, "DELETE", "/v1/session/"+id); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	if status, _ := doJSON(t, ts, "GET", "/v1/session/"+id); status != http.StatusNotFound {
		t.Fatalf("deleted session still resolves: status %d", status)
	}
}

// TestSessionEndpointErrors extends the uniform-envelope contract to the
// session routes and the router itself: every error path — including the
// mux's built-in 404/405 — must return the {"error", "status"} JSON
// envelope with the right code.
func TestSessionEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts, map[string]any{"workload": "mdg"})

	cases := []struct {
		name   string
		method string
		path   string
		body   any // nil = bodyless request
		want   int
	}{
		{"unknown route", "GET", "/v1/nope", nil, http.StatusNotFound},
		{"wrong method on analyze", "GET", "/v1/analyze", nil, http.StatusMethodNotAllowed},
		{"wrong method on session", "PUT", "/v1/session/" + id, nil, http.StatusMethodNotAllowed},
		{"create malformed JSON", "POST", "/v1/session", `{"workload":`, http.StatusBadRequest},
		{"create no source", "POST", "/v1/session", map[string]any{}, http.StatusBadRequest},
		{"create unknown workload", "POST", "/v1/session", map[string]any{"workload": "no-such"}, http.StatusNotFound},
		{"create unparsable source", "POST", "/v1/session", map[string]any{"source": "NOT MINIF(("}, http.StatusUnprocessableEntity},
		{"guru unknown session", "GET", "/v1/session/deadbeef00000000/guru", nil, http.StatusNotFound},
		{"info unknown session", "GET", "/v1/session/deadbeef00000000", nil, http.StatusNotFound},
		{"delete unknown session", "DELETE", "/v1/session/deadbeef00000000", nil, http.StatusNotFound},
		{"assert unknown session", "POST", "/v1/session/deadbeef00000000/assert",
			map[string]any{"kind": "private", "loop": "X/1", "var": "A"}, http.StatusNotFound},
		{"assert bad kind", "POST", "/v1/session/" + id + "/assert",
			map[string]any{"kind": "sideways", "loop": "INTERF/1000", "var": "RL"}, http.StatusBadRequest},
		{"assert missing fields", "POST", "/v1/session/" + id + "/assert",
			map[string]any{"kind": "private"}, http.StatusBadRequest},
		{"why missing loop", "GET", "/v1/session/" + id + "/why", nil, http.StatusBadRequest},
		{"why unknown loop", "GET", "/v1/session/" + id + "/why?loop=NOPE/9", nil, http.StatusNotFound},
		{"slice bad kind", "POST", "/v1/session/" + id + "/slice",
			map[string]any{"kind": "sideways", "proc": "INTERF", "line": 37}, http.StatusBadRequest},
		{"slice missing var", "POST", "/v1/session/" + id + "/slice",
			map[string]any{"kind": "program", "proc": "INTERF", "line": 37}, http.StatusBadRequest},
		{"slice no hit", "POST", "/v1/session/" + id + "/slice",
			map[string]any{"kind": "program", "proc": "INTERF", "var": "RL", "line": 2}, http.StatusNotFound},
		{"events bad after", "GET", "/v1/session/" + id + "/events?after=x", nil, http.StatusBadRequest},
		{"wrong method on batch", "GET", "/v1/batch", nil, http.StatusMethodNotAllowed},
		{"batch malformed JSON", "POST", "/v1/batch", `{"items":`, http.StatusBadRequest},
		{"batch empty manifest", "POST", "/v1/batch", map[string]any{}, http.StatusBadRequest},
		{"batch unknown ladder", "POST", "/v1/batch", map[string]any{"ladder": "sideways"}, http.StatusBadRequest},
		{"batch ambiguous item", "POST", "/v1/batch",
			map[string]any{"items": []map[string]any{{"name": "x", "workload": "mdg", "tier": "1k"}}}, http.StatusBadRequest},
		{"batch unknown workload item", "POST", "/v1/batch",
			map[string]any{"items": []map[string]any{{"workload": "no-such"}}}, http.StatusNotFound},
		{"batch unknown tier item", "POST", "/v1/batch",
			map[string]any{"items": []map[string]any{{"tier": "no-such"}}}, http.StatusNotFound},
		{"wrong method on drain", "GET", "/v1/drain", nil, http.StatusMethodNotAllowed},
		{"drain malformed JSON", "POST", "/v1/drain", `[`, http.StatusBadRequest},
		{"drain empty ids", "POST", "/v1/drain", map[string]any{}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var fields map[string]json.RawMessage
			if tc.body == nil {
				status, fields = doJSON(t, ts, tc.method, tc.path)
			} else {
				status, fields = postJSON(t, ts, tc.path, tc.body)
			}
			if status != tc.want {
				t.Fatalf("status = %d, want %d (body %v)", status, tc.want, fields)
			}
			if _, ok := fields["error"]; !ok {
				t.Fatalf("error response is not the JSON envelope: %v", fields)
			}
			var envStatus int
			if err := json.Unmarshal(fields["status"], &envStatus); err != nil || envStatus != tc.want {
				t.Fatalf("envelope status = %v, want %d", fields["status"], tc.want)
			}
		})
	}
}

// TestSessionConcurrent is the acceptance concurrency suite: 16 parallel
// sessions over the same program, each interleaving assert/guru/slice/why,
// then TTL eviction and shutdown with a goroutine-leak assertion. Run under
// -race in CI.
func TestSessionConcurrent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cache := driver.NewCache()
	// The TTL must be long enough that a session never idles it out between
	// two requests of its own dialogue (16 racing workers on a loaded CI
	// box), yet short enough that the post-dialogue eviction phase is quick.
	srv, ts := newTestServer(t, Config{
		Cache:         cache,
		MaxConcurrent: 64,
		SessionTTL:    3 * time.Second,
		SessionSweep:  50 * time.Millisecond,
	})

	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions*8)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("worker %d: "+format, append([]any{i}, args...)...)
			}
			id := ""
			{
				body, _ := json.Marshal(map[string]any{"workload": "mdg"})
				resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("create: %v", err)
					return
				}
				var created struct {
					ID string `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&created)
				resp.Body.Close()
				if err != nil || created.ID == "" {
					fail("create decode: %v", err)
					return
				}
				id = created.ID
			}
			do := func(method, path string, reqBody any, wantStatus int) []byte {
				var rd io.Reader
				if reqBody != nil {
					b, _ := json.Marshal(reqBody)
					rd = bytes.NewReader(b)
				}
				req, _ := http.NewRequest(method, ts.URL+path, rd)
				resp, err := ts.Client().Do(req)
				if err != nil {
					fail("%s %s: %v", method, path, err)
					return nil
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != wantStatus {
					fail("%s %s: status %d, want %d (%s)", method, path, resp.StatusCode, wantStatus, data)
					return nil
				}
				return data
			}
			for round := 0; round < 3; round++ {
				do("GET", "/v1/session/"+id+"/guru", nil, http.StatusOK)
				do("GET", "/v1/session/"+id+"/why?loop=INTERF/1000", nil, http.StatusOK)
				do("POST", "/v1/session/"+id+"/slice",
					map[string]any{"kind": "program", "proc": "INTERF", "var": "RL", "line": 37}, http.StatusOK)
				data := do("POST", "/v1/session/"+id+"/assert",
					map[string]any{"kind": "private", "loop": "INTERF/1000", "var": "RL"}, http.StatusOK)
				if data != nil {
					var out struct {
						Accepted bool `json:"accepted"`
					}
					if json.Unmarshal(data, &out) != nil || !out.Accepted {
						fail("assert round %d not accepted: %s", round, data)
					}
				}
				// Interleave a rejection path too.
				do("POST", "/v1/session/"+id+"/assert",
					map[string]any{"kind": "independent", "loop": "INTERF/1000", "var": "NOSUCH"}, http.StatusOK)
			}
			if i%2 == 0 {
				do("DELETE", "/v1/session/"+id, nil, http.StatusOK)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// One shared cache analysis served all 16 sessions.
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (sessions must share the analysis)", st.Misses)
	}

	// The janitor TTL-evicts the undeleted half.
	deadline := time.Now().Add(20 * time.Second)
	for srv.Sessions().Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live past the idle TTL", srv.Sessions().Len())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := srv.Sessions().Stats()
	if st.Created != sessions || st.Deleted != sessions/2 || st.EvictedIdle != sessions/2 {
		t.Fatalf("session stats = %+v, want %d created, %d deleted, %d idle-evicted",
			st, sessions, sessions/2, sessions/2)
	}

	ts.Client().CloseIdleConnections()
	ts.Close()
	srv.Close()
	settleGoroutines(t, baseline)
}
