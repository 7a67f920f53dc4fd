package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded call into a layer's public function. Spans of one
// operation share Op; Parent is the index of the enclosing span, -1 for the
// operation's root.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans and boundary counts in memory until the run ends. It
// records only while on, so the untraced measurement pays one branch per
// call site.
type tracer struct {
	on     bool
	t0     time.Time
	mu     sync.Mutex
	spans  []spanRec
	counts map[string]int64
	nextOp int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// span is a handle on an open spanRec; the zero-id handle of a disabled
// tracer makes child and end no-ops.
type span struct {
	t  *tracer
	id int32
	op int64
}

func (t *tracer) open(name string, parent int32, op int64) span {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return span{t: t, id: id, op: op}
}

// root opens the root span of a new operation.
func (t *tracer) root(name string) span {
	if !t.on {
		return span{t: t, id: -1}
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return t.open(name, -1, op)
}

func (s span) child(name string) span {
	if s.id < 0 {
		return s
	}
	return s.t.open(name, s.id, s.op)
}

func (s span) end() {
	if s.id < 0 {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// count records work done at a layer boundary (loops analyzed, summaries
// recomputed, forks), next to the span that did it.
func (t *tracer) count(name string, n int64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []spanRec) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms_by_name"`
	Counts   map[string]int64   `json:"counts"`
	Spans    []spanRec          `json:"spans"`
}

// write dumps the spans, the boundary counts and each span name's summed
// self time.
func (t *tracer) write(path, workload string, seed int64) error {
	tf := traceFile{Workload: workload, Seed: seed, SelfMs: map[string]float64{}, Counts: t.counts, Spans: t.spans}
	for i, ns := range selfTimes(t.spans) {
		tf.SelfMs[t.spans[i].Name] += float64(ns) / 1e6
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
