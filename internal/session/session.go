package session

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"suifx/internal/driver"
	"suifx/internal/explorer"
	"suifx/internal/slice"
)

// Session is one live Guru dialogue: a mutex-guarded explorer session plus
// an event log. All operations serialize on the session mutex, so concurrent
// requests against one session are safe and see a consistent analysis state;
// distinct sessions proceed in parallel.
type Session struct {
	id      string
	name    string
	m       *Manager
	created time.Time

	// lastUsed and elem are guarded by the Manager's lock (they order
	// eviction); the remaining mutable state is guarded by mu.
	lastUsed time.Time
	elem     *list.Element

	mu      sync.Mutex
	ex      *explorer.Session
	events  []Event
	nextSeq int64
	asserts int

	// src and opts are retained (immutable after Create) so a drain can
	// serialize the session for replay on another worker; acceptedLog is the
	// mu-guarded replay script of accepted assertions in order.
	src         string
	opts        Options
	acceptedLog []AssertRecord
}

// ID returns the session's wire identifier.
func (s *Session) ID() string { return s.id }

// Event is one entry of the session's dialogue log.
type Event struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
}

// event appends to the bounded log. Callers either hold s.mu or (during
// Create) have exclusive access.
func (s *Session) event(kind, detail string) {
	s.nextSeq++
	s.events = append(s.events, Event{Seq: s.nextSeq, Time: s.m.cfg.now(), Kind: kind, Detail: detail})
	if max := s.m.cfg.MaxEvents; len(s.events) > max {
		s.events = append(s.events[:0], s.events[len(s.events)-max:]...)
	}
}

// Events returns the log entries with Seq > afterSeq.
func (s *Session) Events(afterSeq int64) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []Event{}
	for _, e := range s.events {
		if e.Seq > afterSeq {
			out = append(out, e)
		}
	}
	return out
}

// Info is the session's lifecycle snapshot.
type Info struct {
	ID       string    `json:"id"`
	Program  string    `json:"program"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	Asserts  int       `json:"asserts"`
	Loops    int       `json:"loops"`
	Parallel int       `json:"parallel_loops"`
}

// Info snapshots the session.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.ex.Par.Stats()
	return Info{
		ID:       s.id,
		Program:  s.name,
		Created:  s.created,
		LastUsed: s.lastUsedSnapshot(),
		Asserts:  s.asserts,
		Loops:    st.TotalLoops,
		Parallel: st.ChosenN,
	}
}

func (s *Session) lastUsedSnapshot() time.Time {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	return s.lastUsed
}

// GuruReport is the Guru's ranked worklist (§2.6) plus the program-level
// coverage and granularity of the automatically parallelized loops.
type GuruReport struct {
	Program string `json:"program"`
	// Coverage is the fraction of profiled work inside chosen parallel loops.
	Coverage      float64  `json:"parallel_coverage"`
	GranularityMs float64  `json:"granularity_ms"`
	Targets       []Target `json:"targets"`
}

// Target is one ranked loop.
type Target struct {
	Loop          string    `json:"loop"`
	Lines         [2]int    `json:"lines"`
	CoveragePct   float64   `json:"coverage_pct"`
	GranularityMs float64   `json:"granularity_ms"`
	DynDeps       int64     `json:"dyn_deps"`
	StaticDeps    int       `json:"static_deps"`
	Important     bool      `json:"important"`
	Blocking      []Blocker `json:"blocking,omitempty"`
}

// Blocker is one variable that keeps a target loop sequential, with the
// parallelizer's reason.
type Blocker struct {
	Var    string `json:"var"`
	Reason string `json:"reason"`
}

// Guru returns the ranked target list.
func (s *Session) Guru() *GuruReport {
	s.m.touch(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.guruLocked()
}

func (s *Session) guruLocked() *GuruReport {
	cov, gran := s.ex.CoverageGranularity()
	rep := &GuruReport{
		Program:       s.name,
		Coverage:      cov,
		GranularityMs: gran,
		Targets:       []Target{},
	}
	for _, t := range s.ex.Targets() {
		lo, hi := t.Loop.Region.Lines()
		tg := Target{
			Loop:          t.ID(),
			Lines:         [2]int{lo, hi},
			CoveragePct:   t.CoveragePct,
			GranularityMs: t.GranularityMs,
			DynDeps:       t.DynDeps,
			StaticDeps:    t.StaticDeps,
			Important:     t.Important,
		}
		for _, b := range t.Loop.Dep.Blocking {
			tg.Blocking = append(tg.Blocking, Blocker{Var: t.Loop.Region.Proc.Own(b.Sym).Name, Reason: b.Reason})
		}
		rep.Targets = append(rep.Targets, tg)
	}
	return rep
}

// Assertion kinds.
const (
	KindPrivate     = "private"
	KindIndependent = "independent"
)

// ErrBadAssertKind reports an unknown assertion kind.
var ErrBadAssertKind = errors.New(`assertion kind must be "private" or "independent"`)

// AssertOutcome is the result of one assertion: either accepted — with the
// re-ranked Guru list — or rejected by the assertion checker with a
// machine-readable code and reason. A rejection is a domain outcome, not a
// transport error.
type AssertOutcome struct {
	Accepted bool   `json:"accepted"`
	Loop     string `json:"loop"`
	Var      string `json:"var"`
	Kind     string `json:"kind"`
	// Code/Reason are set on rejection (explorer.Reject* codes).
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Warnings carry the checker's automatic extensions (e.g. privatizing a
	// common array in callees).
	Warnings []string `json:"warnings,omitempty"`
	// Reanalysis is what the driver recomputed for an accepted assertion:
	// no summary reads an assertion, so Recomputed is 0 and every procedure
	// is Reused. Only the asserted loop's procedure re-tests its loops.
	Reanalysis driver.IncStats `json:"reanalysis"`
	// Guru is the re-ranked worklist after an accepted assertion.
	Guru *GuruReport `json:"guru,omitempty"`
}

// Assert records a user assertion and, when the checker accepts it, re-tests
// the asserted loop and re-ranks. Only ErrBadAssertKind is returned as an
// error; checker rejections come back inside the outcome.
func (s *Session) Assert(kind, loopID, varName string) (*AssertOutcome, error) {
	s.m.touch(s)
	s.mu.Lock()
	defer s.mu.Unlock()

	out := &AssertOutcome{Loop: loopID, Var: varName, Kind: kind}
	var warnings []string
	var err error
	switch kind {
	case KindPrivate:
		warnings, err = s.ex.AssertPrivate(loopID, varName)
	case KindIndependent:
		err = s.ex.AssertIndependent(loopID, varName)
	default:
		return nil, fmt.Errorf("%q: %w", kind, ErrBadAssertKind)
	}
	if err != nil {
		var rej *explorer.RejectError
		if errors.As(err, &rej) {
			out.Code, out.Reason = rej.Code, rej.Reason
			s.m.assertsRejected.Add(1)
			s.event("assert-rejected", fmt.Sprintf("%s %s in %s: %s", kind, varName, loopID, rej.Reason))
			return out, nil
		}
		return nil, err
	}
	out.Accepted = true
	out.Warnings = warnings
	out.Reanalysis = s.ex.LastInc
	out.Guru = s.guruLocked()
	s.asserts++
	s.acceptedLog = append(s.acceptedLog, AssertRecord{Kind: kind, Loop: loopID, Var: varName})
	s.m.assertsAccepted.Add(1)
	s.event("assert", fmt.Sprintf("%s %s: re-tested %s", kind, varName, loopID))
	return out, nil
}

// Why explains one loop's verdict.
func (s *Session) Why(loopID string) (*explorer.WhyReport, error) {
	s.m.touch(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.ex.Why(loopID)
	if err == nil {
		s.event("why", loopID)
	}
	return r, err
}

// SliceReport is the session /slice response.
type SliceReport struct {
	Kind string `json:"kind"`
	Proc string `json:"proc"`
	Var  string `json:"var,omitempty"`
	Line int    `json:"line"`
	// Procs maps procedure name to the sorted slice lines in it.
	Procs map[string][]int `json:"procs"`
}

// Slice computes a program/data/control slice anchored in this session's
// program. Errors are the slice package's sentinel errors.
func (s *Session) Slice(kind, proc, varName string, line int) (*SliceReport, error) {
	s.m.touch(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	procs, kindN, err := slice.Query(s.ex.Graph(), kind, proc, varName, line)
	if err != nil {
		return nil, err
	}
	s.event("slice", fmt.Sprintf("%s slice at %s:%d", kindN, proc, line))
	return &SliceReport{Kind: kindN, Proc: proc, Var: varName, Line: line, Procs: procs}, nil
}
