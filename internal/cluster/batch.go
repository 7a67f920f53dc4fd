package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/server"
)

// batchItemTimeout bounds one item's analysis on one worker; the worker's
// own RequestTimeout usually fires first.
const batchItemTimeout = 60 * time.Second

// handleBatch fans a corpus manifest across the cluster: each item routes to
// its ring owner as a single-item worker batch, failed items retry on the
// next surviving owner, and records stream back in input order — so the
// NDJSON byte stream matches a single worker running the same manifest,
// whatever the fleet does meanwhile. Record construction lives entirely in
// the worker; the coordinator rewrites only the index.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if err := server.DecodeJSON(r, c.cfg.MaxBodyBytes, &req); err != nil {
		server.WriteError(w, server.StatusOf(err), err.Error())
		return
	}
	items, err := corpus.NormalizeBatch(req.Ladder, req.Items)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve up front — manifest errors abort before the stream starts
	// (matching the worker), and the resolved sources drive shard keying.
	resolved, err := server.ResolveBatch(items)
	if err != nil {
		server.WriteError(w, server.StatusOf(err), err.Error())
		return
	}

	par := c.cfg.BatchParallelism
	if req.Parallelism > 0 {
		par = req.Parallelism
	}
	if par > server.MaxBatchParallelism {
		par = server.MaxBatchParallelism
	}
	server.StreamBatch(w, len(resolved), par, func(i int) *server.BatchItemResult {
		rec := c.batchItem(r.Context(), i, items[i], resolved[i], req)
		if rec.Status != "ok" {
			c.batchFailures.Add(1)
		}
		return rec
	})
}

// itemKey shards batch items exactly like the analyze proxy: workloads by
// name, everything else by resolved source hash.
func itemKey(item corpus.BatchItem, p server.BatchProgram) string {
	if item.Kind() == "workload" {
		return ProgramKey(item.Workload, "")
	}
	return ProgramKey("", p.Source)
}

// batchItem runs one manifest item somewhere in the cluster. The original
// (unresolved) item is forwarded so the worker constructs the record exactly
// as a single-node batch would; only transport-level failures — including a
// worker dying mid-stream after a 200 — fail over to the next owner. Worker
// result records, error or not, are deterministic answers and never retried.
func (c *Coordinator) batchItem(ctx context.Context, i int, item corpus.BatchItem, p server.BatchProgram, req server.BatchRequest) *server.BatchItemResult {
	c.batchItems.Add(1)
	// Unnamed items default their name from the batch index ("item-3"), but
	// inside the single-item sub-batch the worker would see index 0. Pin the
	// name the full manifest resolved so records match a single-node run.
	if item.Name == "" {
		item.Name = p.Name
	}
	sub := server.BatchRequest{
		Items:        []corpus.BatchItem{item},
		Parallelism:  1,
		Workers:      req.Workers,
		NoReductions: req.NoReductions,
		Liveness:     req.Liveness,
	}
	body, err := json.Marshal(&sub)
	if err != nil {
		return &server.BatchItemResult{Index: i, Name: p.Name, Lines: p.Lines,
			Status: "error", HTTPStatus: http.StatusInternalServerError, Error: err.Error()}
	}

	key := itemKey(item, p)
	tried := map[string]bool{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		// Re-read the ring each attempt: an ejection mid-batch re-routes the
		// remaining candidates without waiting for this item to exhaust them.
		var sh *shard
		for _, cand := range c.healthyOwners(key, len(c.order)) {
			if !tried[cand.url] {
				sh = cand
				break
			}
		}
		if sh == nil || ctx.Err() != nil {
			break
		}
		if attempt > 0 {
			c.batchRetries.Add(1)
		}
		tried[sh.url] = true
		rec, err := c.batchCall(ctx, sh, body)
		if err == nil {
			rec.Index = i
			return rec
		}
		lastErr = err
	}
	if ctx.Err() != nil && lastErr == nil {
		lastErr = ctx.Err()
	}
	return &server.BatchItemResult{Index: i, Name: p.Name, Lines: p.Lines,
		Status: "error", HTTPStatus: http.StatusBadGateway,
		Error: fmt.Sprintf("no worker could analyze item: %v", lastErr)}
}

// batchCall runs a single-item batch on one shard and returns the record. A
// non-200, a truncated stream, or a malformed record all mean "this worker
// didn't answer" — the caller's cue to fail over.
func (c *Coordinator) batchCall(ctx context.Context, sh *shard, body []byte) (*server.BatchItemResult, error) {
	ictx, cancel := context.WithTimeout(ctx, batchItemTimeout)
	defer cancel()
	resp, err := sh.do(ictx, http.MethodPost, "/v1/batch", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		return nil, fmt.Errorf("worker %s: status %s: %s", sh.url, resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	var rec server.BatchItemResult
	if err := dec.Decode(&rec); err != nil {
		sh.errors.Add(1)
		return nil, fmt.Errorf("worker %s died mid-stream: %v", sh.url, err)
	}
	var sum server.BatchSummary
	if err := dec.Decode(&sum); err != nil || !sum.Done {
		sh.errors.Add(1)
		return nil, fmt.Errorf("worker %s: truncated batch stream", sh.url)
	}
	return &rec, nil
}
