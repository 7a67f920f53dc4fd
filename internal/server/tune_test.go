package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"suifx/internal/tune"
)

// tuneSlowSource is a program whose tuning sweep takes whole seconds: a hot
// elementwise nest executed many times, so each of the sweep's ~36 plan runs
// costs millions of virtual ops — room for cancellation and timeout tests to
// land mid-search.
const tuneSlowSource = `
      PROGRAM slow
      REAL a(4096)
      INTEGER i, j
      DO 10 j = 1, 1200
        DO 5 i = 1, 4096
          a(i) = a(i) + 0.5
5       CONTINUE
10    CONTINUE
      END
`

// TestTuneEndpoint is the happy path: a workload search returns the full
// report, the per-endpoint metrics count it, and the package counters in
// /v1/stats advance.
func TestTuneEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := tune.ReadCounters()
	status, fields := postJSON(t, ts, "/v1/tune", map[string]any{"workload": "chain"})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%v)", status, fields)
	}
	var rep tune.Report
	// The response embeds the report fields at the top level.
	raw, _ := json.Marshal(fields)
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) == 0 {
		t.Fatal("no tuned loops in response")
	}
	if rep.Speedup < 1 {
		t.Errorf("speedup %.3f < 1", rep.Speedup)
	}
	if rep.BudgetExhausted {
		t.Error("unbudgeted search reported exhaustion")
	}
	stats, sr := getStats(t, ts)
	if stats != http.StatusOK {
		t.Fatalf("stats: %d", stats)
	}
	if ep := sr.Endpoints["tune"]; ep.Requests != 1 {
		t.Errorf("tune endpoint counted %d requests, want 1", ep.Requests)
	}
	if sr.Tune.Searches != before.Searches+1 {
		t.Errorf("tune searches %d -> %d, want +1", before.Searches, sr.Tune.Searches)
	}
	if sr.Tune.Runs <= before.Runs {
		t.Error("tune run counter did not advance")
	}
}

// TestTuneRepeatByteIdentical: the same request twice produces byte-identical
// responses — the determinism property observed end to end through HTTP.
func TestTuneRepeatByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"workload": "mdg", "workers": []int{1, 2, 4}, "max_depth": 1}
	post := func() []byte {
		data, _ := json.Marshal(req)
		resp, err := ts.Client().Post(ts.URL+"/v1/tune", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return raw
	}
	a, b := post(), post()
	if !bytes.Equal(a, b) {
		t.Errorf("repeated /v1/tune responses differ:\n%s\n--\n%s", a, b)
	}
}

// TestTuneBudgetExhausted: a one-run budget returns a partial result flagged
// "budget_exhausted": true, still HTTP 200, with no nest worse than default.
func TestTuneBudgetExhausted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, fields := postJSON(t, ts, "/v1/tune", map[string]any{"workload": "mdg", "max_runs": 1})
	if status != http.StatusOK {
		t.Fatalf("status = %d (%v)", status, fields)
	}
	var exhausted bool
	if err := json.Unmarshal(fields["budget_exhausted"], &exhausted); err != nil || !exhausted {
		t.Fatalf("budget_exhausted = %s, want true", fields["budget_exhausted"])
	}
	var rep tune.Report
	raw, _ := json.Marshal(fields)
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, lr := range rep.Loops {
		if lr.Speedup < 1 {
			t.Errorf("%s: budgeted speedup %.3f < 1", lr.ID, lr.Speedup)
		}
	}
}

// TestTuneErrors is the error contract: invalid knobs and machine are
// 422; unknown workloads 404; malformed JSON 400.
func TestTuneErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"malformed JSON", `{"workload":`, http.StatusBadRequest},
		{"unknown workload", map[string]any{"workload": "no-such"}, http.StatusNotFound},
		{"zero worker count", map[string]any{"workload": "mdg", "workers": []int{0}}, http.StatusUnprocessableEntity},
		{"duplicate workers", map[string]any{"workload": "mdg", "workers": []int{2, 2}}, http.StatusUnprocessableEntity},
		{"negative budget", map[string]any{"workload": "mdg", "max_runs": -1}, http.StatusUnprocessableEntity},
		{"absurd depth", map[string]any{"workload": "mdg", "max_depth": 99}, http.StatusUnprocessableEntity},
		{"unknown machine", map[string]any{"workload": "mdg", "machine": "cray"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, fields := postJSON(t, ts, "/v1/tune", tc.body)
			if status != tc.want {
				t.Fatalf("status = %d, want %d (%v)", status, tc.want, fields)
			}
			if _, ok := fields["error"]; !ok {
				t.Fatalf("error response has no error field: %v", fields)
			}
		})
	}
}

// TestTuneTimeout504: a request timeout shorter than the sweep answers 504,
// the search abandons its remaining variants, and no goroutine leaks.
func TestTuneTimeout504(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, ts := newTestServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	status, fields := postJSON(t, ts, "/v1/tune",
		map[string]any{"name": "slow.f", "source": tuneSlowSource})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%v)", status, fields)
	}
	ts.Client().CloseIdleConnections()
	ts.Close()
	settleGoroutines(t, baseline)
}

// TestTuneCancelMidSearch: a client disconnect mid-sweep makes the search
// abandon its unstarted variants — the cancelled counter advances, far fewer
// runs execute than the full space needs, and the worker goroutine drains.
func TestTuneCancelMidSearch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	before := tune.ReadCounters()
	_, ts := newTestServer(t, Config{})

	body, _ := json.Marshal(map[string]any{"name": "slow.f", "source": tuneSlowSource})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/tune", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = nil
		}
		done <- err
	}()
	// Let the sweep start (the baseline run alone takes tens of ms), then
	// hang up mid-search.
	time.Sleep(200 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request completed normally — sweep finished before the cancel landed")
	}

	// The search observes cancellation at its next run boundary; poll until
	// the counter reflects it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		after := tune.ReadCounters()
		if after.Cancelled >= before.Cancelled+1 {
			// The full sweep for this source needs ~37 runs; an abandoned
			// one must have stopped well short.
			if delta := after.Runs - before.Runs; delta >= 37 {
				t.Errorf("cancelled search still executed %d runs", delta)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled counter never advanced")
		}
		time.Sleep(20 * time.Millisecond)
	}
	ts.Client().CloseIdleConnections()
	ts.Close()
	settleGoroutines(t, baseline)
}
