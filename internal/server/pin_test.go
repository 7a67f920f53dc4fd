package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"suifx/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite the pinned /v1/analyze bodies, batch fingerprints and slice bodies under testdata/")

// elapsedRE matches the one timing field of an indented /v1/analyze body;
// pinned bodies carry it as 0.
var elapsedRE = regexp.MustCompile(`"elapsed_ms": [-+0-9.eE]+`)

// pinConfig is the shape of the hot programs serve-mix sends: about 600
// lines, two call levels, loop nests two deep.
var pinConfig = corpus.Config{
	TargetLines: 600, CallDepth: 2, CallFanout: 2, LoopDepth: 2,
	AliasDensity: 0.2, ReductionMix: 0.3, TripLo: 2, TripHi: 10,
}

// pinnedPrograms are the programs whose /v1/analyze bodies are pinned, keyed
// by file stem.
func pinnedPrograms() []struct {
	stem string
	ref  SourceRef
} {
	return []struct {
		stem string
		ref  SourceRef
	}{
		{"mdg", SourceRef{Workload: "mdg"}},
		{"hydro", SourceRef{Workload: "hydro"}},
		{"chain", SourceRef{Workload: "chain"}},
		{"corpus600", SourceRef{Name: "corpus600.f", Source: corpus.Generate(9000, pinConfig).Source}},
	}
}

// analyzeOptions are the four (no_reductions, liveness) combinations, each
// with its pin-file suffix.
var analyzeOptions = []struct {
	suffix       string
	noReductions bool
	liveness     bool
}{
	{"", false, false},
	{"_noreductions", true, false},
	{"_liveness", false, true},
	{"_noreductions_liveness", true, true},
}

// pinnedSlices are the /v1/slice queries whose bodies are pinned.
var pinnedSlices = []struct {
	stem string
	req  SliceRequest
}{
	{"mdg_program", SliceRequest{SourceRef: SourceRef{Workload: "mdg"}, Proc: "interf", Var: "rl", Line: 37}},
	{"mdg_data", SliceRequest{SourceRef: SourceRef{Workload: "mdg"}, Proc: "interf", Var: "rl", Line: 37, Kind: "data"}},
	{"mdg_control", SliceRequest{SourceRef: SourceRef{Workload: "mdg"}, Proc: "interf", Line: 37, Kind: "control"}},
}

// postRaw posts body and returns the status and the reply bytes unparsed.
func postRaw(t testing.TB, ts *httptest.Server, path string, body any) (int, []byte) {
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
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// checkPin compares got with testdata/<rel>, or rewrites the file under
// -update.
func checkPin(t *testing.T, rel string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", rel)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", rel, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", rel, len(gl), len(wl))
}

// TestServerAnalyzeBodiesPinned holds /v1/analyze to the bodies the
// re-rendering server produced: four programs under all four option
// combinations (elapsed_ms zeroed), the result_sha256 of every quick-ladder
// /v1/batch item, and three /v1/slice bodies. Regenerate only for an
// intended answer change: go test ./internal/server -run
// TestServerAnalyzeBodiesPinned -update.
func TestServerAnalyzeBodiesPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, p := range pinnedPrograms() {
		for _, o := range analyzeOptions {
			req := AnalyzeRequest{SourceRef: p.ref, NoReductions: o.noReductions, Liveness: o.liveness}
			status, body := postRaw(t, ts, "/v1/analyze", req)
			if status != http.StatusOK {
				t.Fatalf("%s%s: status %d: %s", p.stem, o.suffix, status, body)
			}
			checkPin(t, filepath.Join("analyze", p.stem+o.suffix+".json"),
				elapsedRE.ReplaceAll(body, []byte(`"elapsed_ms": 0`)))
		}
	}

	status, lines := postNDJSON(t, ts, "/v1/batch", map[string]any{"ladder": "quick"})
	if status != http.StatusOK {
		t.Fatalf("quick-ladder batch: status %d: %v", status, lines)
	}
	var shas strings.Builder
	for _, l := range lines[:len(lines)-1] {
		var rec BatchItemResult
		if err := json.Unmarshal([]byte(l), &rec); err != nil || rec.Status != "ok" {
			t.Fatalf("batch record %q: %v", l, err)
		}
		fmt.Fprintf(&shas, "%s %s\n", rec.Name, rec.ResultSHA256)
	}
	checkPin(t, filepath.Join("analyze", "batch_quick.sha"), []byte(shas.String()))

	for _, sl := range pinnedSlices {
		status, body := postRaw(t, ts, "/v1/slice", sl.req)
		if status != http.StatusOK {
			t.Fatalf("slice %s: status %d: %s", sl.stem, status, body)
		}
		checkPin(t, filepath.Join("slice", sl.stem+".json"), body)
	}
}
