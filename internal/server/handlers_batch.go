package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"suifx/internal/corpus"
)

// --- POST /v1/batch ---

// DefaultBatchParallelism bounds per-batch concurrent analyses when the
// request doesn't say.
const DefaultBatchParallelism = 4

// MaxBatchParallelism caps the request's parallelism knob.
const MaxBatchParallelism = 32

// BatchRequest runs a corpus manifest — any mix of built-in workloads,
// frozen ladder tiers, (seed, config) factory programs, and inline sources —
// through the full analysis, streaming one NDJSON record per program plus a
// trailer with partial-failure accounting. Against a coordinator the items
// fan out across the cluster; against a single worker they run locally under
// the same wire contract.
type BatchRequest struct {
	// Ladder expands to its tier items ("quick", "size", "full"), prepended
	// to Items.
	Ladder string             `json:"ladder,omitempty"`
	Items  []corpus.BatchItem `json:"items,omitempty"`
	// Parallelism bounds concurrently analyzed items (default 4, max 32).
	Parallelism int `json:"parallelism,omitempty"`
	// Workers / NoReductions / Liveness are per-item analyze knobs, as in
	// AnalyzeRequest.
	Workers      int  `json:"workers,omitempty"`
	NoReductions bool `json:"no_reductions,omitempty"`
	Liveness     bool `json:"liveness,omitempty"`
}

// BatchItemResult is one stream record. Every field is deterministic for a
// given (program, knobs) pair — timings and shard placement deliberately stay
// out, so a single worker and a cluster produce byte-identical streams.
// ResultSHA256 fingerprints the canonicalized AnalyzeResponse (ElapsedMs
// zeroed), letting clients diff runs without shipping full results.
type BatchItemResult struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Status string `json:"status"` // "ok" or "error"
	// HTTPStatus / Error report a per-item failure (the batch keeps going).
	HTTPStatus    int    `json:"http_status,omitempty"`
	Error         string `json:"error,omitempty"`
	SourceHash    string `json:"source_hash,omitempty"`
	Lines         int    `json:"lines,omitempty"`
	Loops         int    `json:"loops,omitempty"`
	ParallelLoops int    `json:"parallel_loops,omitempty"`
	ResultSHA256  string `json:"result_sha256,omitempty"`
}

// BatchSummary is the stream trailer.
type BatchSummary struct {
	Done   bool `json:"done"`
	Total  int  `json:"total"`
	OK     int  `json:"ok"`
	Failed int  `json:"failed"`
}

// BatchProgram is a fully resolved batch item (exported for the cluster
// coordinator, which resolves manifests for shard keying).
type BatchProgram struct {
	Name   string
	Source string
	Lines  int
}

// ResolveBatch resolves every item before any analysis runs, so manifest
// errors (unknown workload, unknown tier, ambiguous item) are a single
// enveloped error response instead of a half-streamed batch.
func ResolveBatch(items []corpus.BatchItem) ([]BatchProgram, error) {
	out := make([]BatchProgram, len(items))
	for i, it := range items {
		var name, src string
		var err error
		switch it.Kind() {
		case "workload":
			name, src, err = SourceRef{Workload: it.Workload}.resolve()
			if err == nil && it.Name != "" {
				name = it.Name
			}
		case "source":
			name, src = it.Name, it.Source
			if name == "" {
				name = "item-" + strconv.Itoa(i)
			}
		default:
			name, src, err = it.Resolve()
			if err != nil {
				err = errf(http.StatusNotFound, "item %d: %v", i, err)
			}
		}
		if err != nil {
			return nil, err
		}
		out[i] = BatchProgram{Name: name, Source: src, Lines: strings.Count(src, "\n")}
	}
	return out, nil
}

func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req BatchRequest
	if err := s.decodeJSON(r, &req); err != nil {
		return err
	}
	items, err := corpus.NormalizeBatch(req.Ladder, req.Items)
	if err != nil {
		return errf(http.StatusBadRequest, "%v", err)
	}
	resolved, err := ResolveBatch(items)
	if err != nil {
		return err
	}

	par := req.Parallelism
	switch {
	case par <= 0:
		par = DefaultBatchParallelism
	case par > MaxBatchParallelism:
		par = MaxBatchParallelism
	}
	StreamBatch(w, len(resolved), par, func(i int) *BatchItemResult { return s.batchOne(ctx, i, resolved[i], req) })
	return nil
}

// StreamBatch answers a batch request: item(i) runs for every i in [0, n) on
// a pool of at most parallelism goroutines, and the records stream to w as
// NDJSON strictly in index order (done[i] gates the emit loop), each flushed
// as soon as it is next in line, followed by the BatchSummary trailer — so
// the byte stream is the same whatever order the items finish in. The worker
// and the cluster coordinator both answer /v1/batch through it.
func StreamBatch(w http.ResponseWriter, n, parallelism int, item func(i int) *BatchItemResult) {
	recs := make([]*BatchItemResult, n)
	done := make([]chan struct{}, n)
	idx := make(chan int, n) // one slot per item: the feeder never blocks
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for k := 0; k < min(parallelism, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				recs[i] = item(i)
				close(done[i])
			}
		}()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) {
		_ = enc.Encode(v) // the client went away; the remaining items still finish
		if fl != nil {
			fl.Flush()
		}
	}
	sum := BatchSummary{Done: true, Total: n}
	for i := 0; i < n; i++ {
		<-done[i]
		if recs[i].Status == "ok" {
			sum.OK++
		} else {
			sum.Failed++
		}
		emit(recs[i])
	}
	wg.Wait()
	emit(sum)
}

// batchOne analyzes one resolved item. Failures (parse errors, per-item
// timeouts) become error records — the batch's partial-failure accounting —
// never a dropped stream.
func (s *Server) batchOne(ctx context.Context, i int, p BatchProgram, req BatchRequest) *BatchItemResult {
	rec := &BatchItemResult{Index: i, Name: p.Name, Lines: p.Lines}
	fail := func(err error) *BatchItemResult {
		rec.Status = "error"
		rec.HTTPStatus = statusOf(err)
		rec.Error = err.Error()
		return rec
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	ictx := ctx
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ictx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	v, err := s.verdict(ictx, SourceRef{Name: p.Name, Source: p.Source},
		req.Workers, req.NoReductions, req.Liveness)
	if err != nil {
		return fail(err)
	}
	rec.Status = "ok"
	rec.SourceHash = v.sourceHash
	rec.Loops = v.loops
	rec.ParallelLoops = v.chosen
	rec.ResultSHA256 = v.resultSHA256
	return rec
}
