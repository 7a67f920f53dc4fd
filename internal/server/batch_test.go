package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/session"
)

// postNDJSON posts a batch request and returns the status plus the raw NDJSON
// lines (records then trailer).
func postNDJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return resp.StatusCode, lines
}

// TestServerBatchStream: a mixed manifest streams one ok record per item, in
// input order, with a correct trailer — and the byte stream is deterministic
// across runs (the fingerprint the cluster equivalence tests build on).
func TestServerBatchStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"items": []map[string]any{
		{"workload": "mdg"},
		{"name": "inline", "source": "      PROGRAM t\n      INTEGER i\n      REAL a(10)\n      DO 10 i = 1, 10\n        a(i) = 0.0\n10    CONTINUE\n      END\n"},
	}}

	var runs [][]string
	for run := 0; run < 2; run++ {
		status, lines := postNDJSON(t, ts, "/v1/batch", req)
		if status != http.StatusOK {
			t.Fatalf("status = %d: %v", status, lines)
		}
		if len(lines) != 3 {
			t.Fatalf("got %d NDJSON lines, want 2 records + trailer: %v", len(lines), lines)
		}
		runs = append(runs, lines)
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("batch stream not deterministic at line %d:\n%s\n%s", i, runs[0][i], runs[1][i])
		}
	}

	var recs [2]BatchItemResult
	for i := 0; i < 2; i++ {
		if err := json.Unmarshal([]byte(runs[0][i]), &recs[i]); err != nil {
			t.Fatal(err)
		}
		if recs[i].Index != i || recs[i].Status != "ok" {
			t.Fatalf("record %d = %+v, want ok at index %d", i, recs[i], i)
		}
		if recs[i].ResultSHA256 == "" || recs[i].SourceHash == "" || recs[i].Loops <= 0 {
			t.Fatalf("record %d missing fingerprint fields: %+v", i, recs[i])
		}
	}
	if recs[0].Name != "mdg" || recs[1].Name != "inline" {
		t.Fatalf("records out of input order: %q, %q", recs[0].Name, recs[1].Name)
	}
	var sum BatchSummary
	if err := json.Unmarshal([]byte(runs[0][2]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Total != 2 || sum.OK != 2 || sum.Failed != 0 {
		t.Fatalf("trailer = %+v, want done/2/2/0", sum)
	}
}

// TestServerBatchLadder: a ladder name expands server-side; every tier
// analyzes ok.
func TestServerBatchLadder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, lines := postNDJSON(t, ts, "/v1/batch", map[string]any{"ladder": "quick"})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %v", status, lines)
	}
	want := len(corpus.QuickLadder())
	if len(lines) != want+1 {
		t.Fatalf("got %d lines, want %d records + trailer", len(lines), want)
	}
	var sum BatchSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.OK != want || sum.Failed != 0 {
		t.Fatalf("trailer = %+v, want %d ok", sum, want)
	}
}

// TestServerBatchPartialFailure: a bad item becomes an error record with the
// per-item status; the stream keeps going and the trailer accounts for it.
func TestServerBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, lines := postNDJSON(t, ts, "/v1/batch", map[string]any{"items": []map[string]any{
		{"name": "bad", "source": "THIS IS NOT MINIF(("},
		{"workload": "mdg"},
	}})
	if status != http.StatusOK {
		t.Fatalf("status = %d (partial failures must not fail the stream)", status)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	var bad, good BatchItemResult
	json.Unmarshal([]byte(lines[0]), &bad)
	json.Unmarshal([]byte(lines[1]), &good)
	if bad.Status != "error" || bad.HTTPStatus != http.StatusUnprocessableEntity || bad.Error == "" {
		t.Fatalf("bad record = %+v, want error/422", bad)
	}
	if good.Status != "ok" {
		t.Fatalf("good record after the failure = %+v", good)
	}
	var sum BatchSummary
	json.Unmarshal([]byte(lines[2]), &sum)
	if sum.Total != 2 || sum.OK != 1 || sum.Failed != 1 {
		t.Fatalf("trailer = %+v, want 2/1/1", sum)
	}
}

// TestServerDrainRoundTrip is the handoff protocol end to end on the worker
// layer: create + assert on server A, drain, replay the export on server B
// via the pinned-id resume create, and check the dialogue state survived.
func TestServerDrainRoundTrip(t *testing.T) {
	_, tsA := newTestServer(t, Config{})
	_, tsB := newTestServer(t, Config{})

	id := createSession(t, tsA, map[string]any{"workload": "mdg"})
	status, fields := postJSON(t, tsA, "/v1/session/"+id+"/assert",
		map[string]any{"kind": "private", "loop": "INTERF/1000", "var": "RL"})
	if status != http.StatusOK {
		t.Fatalf("assert: status %d (%v)", status, fields)
	}
	_, guruBefore := doJSON(t, tsA, "GET", "/v1/session/"+id+"/guru")

	// Drain from A: the export carries source + options + the accepted script.
	status, fields = postJSON(t, tsA, "/v1/drain", map[string]any{"ids": []string{id, "no-such-id"}})
	if status != http.StatusOK {
		t.Fatalf("drain: status %d (%v)", status, fields)
	}
	var dr DrainResponse
	raw, _ := json.Marshal(fields)
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Sessions) != 1 || len(dr.Missing) != 1 || dr.Missing[0] != "no-such-id" {
		t.Fatalf("drain response = %+v, want 1 export + 1 missing", dr)
	}
	ex := dr.Sessions[0]
	if ex.ID != id || ex.Source == "" || len(ex.Asserts) != 1 ||
		ex.Asserts[0] != (session.AssertRecord{Kind: "private", Loop: "INTERF/1000", Var: "RL"}) {
		t.Fatalf("export = %+v, want the accepted assert script", ex)
	}
	// The session is gone from A.
	if status, _ := doJSON(t, tsA, "GET", "/v1/session/"+id); status != http.StatusNotFound {
		t.Fatalf("drained session still live on A: status %d", status)
	}

	// Replay on B under the original id.
	status, fields = postJSON(t, tsB, "/v1/session", map[string]any{
		"name": ex.Name, "source": ex.Source, "id": ex.ID,
		"resume": ex.Asserts, "workers": ex.Workers, "max_ops": ex.MaxOps,
		"no_reductions": ex.NoReductions, "no_liveness": ex.NoLiveness,
	})
	if status != http.StatusOK {
		t.Fatalf("resume create on B: status %d (%v)", status, fields)
	}
	var newID string
	json.Unmarshal(fields["id"], &newID)
	if newID != id {
		t.Fatalf("imported session id = %q, want pinned %q", newID, id)
	}
	_, guruAfter := doJSON(t, tsB, "GET", "/v1/session/"+id+"/guru")
	if len(guruAfter) != len(guruBefore) {
		t.Fatalf("guru fields diverged across the handoff:\nA: %v\nB: %v", guruBefore, guruAfter)
	}
	for k := range guruBefore {
		if string(guruBefore[k]) != string(guruAfter[k]) {
			t.Fatalf("guru %q diverged across the handoff:\nA: %s\nB: %s",
				k, guruBefore[k], guruAfter[k])
		}
	}

	// A duplicate pinned id is a 409; a malformed one a 400.
	status, _ = postJSON(t, tsB, "/v1/session", map[string]any{"workload": "mdg", "id": id})
	if status != http.StatusConflict {
		t.Fatalf("duplicate pinned id: status %d, want 409", status)
	}
	status, _ = postJSON(t, tsB, "/v1/session", map[string]any{"workload": "mdg", "id": "no spaces!"})
	if status != http.StatusBadRequest {
		t.Fatalf("malformed pinned id: status %d, want 400", status)
	}
	// Resume without an id is a 400.
	status, _ = postJSON(t, tsB, "/v1/session", map[string]any{
		"workload": "mdg", "resume": []map[string]any{{"kind": "private", "loop": "X/1", "var": "A"}}})
	if status != http.StatusBadRequest {
		t.Fatalf("resume without id: status %d, want 400", status)
	}
}

// TestServerDrainAll: "all": true retires every live session and reports the
// drain in the manager counters.
func TestServerDrainAll(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createSession(t, ts, map[string]any{"workload": "mdg"})
	createSession(t, ts, map[string]any{"workload": "mdg"})

	status, fields := postJSON(t, ts, "/v1/drain", map[string]any{"all": true})
	if status != http.StatusOK {
		t.Fatalf("drain all: status %d (%v)", status, fields)
	}
	var dr DrainResponse
	raw, _ := json.Marshal(fields)
	json.Unmarshal(raw, &dr)
	if len(dr.Sessions) != 2 || len(dr.Missing) != 0 {
		t.Fatalf("drain all = %d exports + %d missing, want 2 + 0", len(dr.Sessions), len(dr.Missing))
	}
	if srv.Sessions().Len() != 0 {
		t.Fatalf("%d sessions survive a drain-all", srv.Sessions().Len())
	}
	if st := srv.Sessions().Stats(); st.Drained != 2 {
		t.Fatalf("drained counter = %d, want 2", st.Drained)
	}
}
