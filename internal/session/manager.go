// Package session hosts the SUIF Explorer's interactive Guru dialogue
// (§2.6–§2.8) as a stateful, concurrency-safe subsystem: a Manager keeps a
// bounded table of live sessions, each pinning a parsed program plus its
// analysis state, so the create → guru → assert → re-rank loop pays one cold
// analysis and one profiling run up front and then only a re-test of the
// asserted loop per interaction. Sessions are evicted when idle
// past a TTL, when the table is full (least recently used first), or on
// explicit delete; every transition is counted for /v1/stats.
package session

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"suifx/internal/driver"
	"suifx/internal/explorer"
)

// Defaults for the zero Config.
const (
	DefaultMaxSessions = 64
	DefaultIdleTTL     = 15 * time.Minute
	DefaultSweepEvery  = 30 * time.Second
	DefaultMaxEvents   = 256
	// DefaultMaxOps bounds a session's profiling run so one pathological
	// program cannot pin a creation slot forever.
	DefaultMaxOps = 200_000_000
)

// Config tunes a Manager. The zero value is usable.
type Config struct {
	// MaxSessions bounds the session table; creating past the bound evicts
	// the least recently used session. Default 64.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long. Default 15m.
	IdleTTL time.Duration
	// SweepEvery is the janitor period. Default 30s.
	SweepEvery time.Duration
	// Cache supplies memoized whole-program analyses for session creation
	// (default driver.Shared()): identical sources across sessions cost one
	// static analysis, which each session then branches incrementally.
	Cache *driver.Cache
	// Workers bounds each session's analysis worker pool (0 = GOMAXPROCS).
	Workers int
	// MaxEvents bounds each session's event log. Default 256.
	MaxEvents int

	// now is the test clock (default time.Now).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = DefaultIdleTTL
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = DefaultSweepEvery
	}
	if c.Cache == nil {
		c.Cache = driver.Shared()
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Manager is the bounded, concurrency-safe session table.
type Manager struct {
	cfg Config

	mu   sync.Mutex
	byID map[string]*Session
	lru  *list.List // front = most recently used; values are *Session

	created         atomic.Int64
	deleted         atomic.Int64
	evictedIdle     atomic.Int64
	evictedFull     atomic.Int64
	assertsAccepted atomic.Int64
	assertsRejected atomic.Int64
	drained         atomic.Int64
	imported        atomic.Int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewManager builds a Manager and starts its idle-TTL janitor; callers must
// Close it to stop the janitor goroutine.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:  cfg.withDefaults(),
		byID: map[string]*Session{},
		lru:  list.New(),
		stop: make(chan struct{}),
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Close stops the janitor and drops every session. It is idempotent.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.stop)
		m.wg.Wait()
		m.mu.Lock()
		m.byID = map[string]*Session{}
		m.lru = list.New()
		m.mu.Unlock()
	})
}

func (m *Manager) janitor() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Sweep()
		}
	}
}

// Sweep evicts every session idle past the TTL and returns how many went.
func (m *Manager) Sweep() int {
	now := m.cfg.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for el := m.lru.Back(); el != nil; {
		prev := el.Prev()
		s := el.Value.(*Session)
		if now.Sub(s.lastUsed) > m.cfg.IdleTTL {
			m.removeLocked(s)
			m.evictedIdle.Add(1)
			n++
		}
		el = prev
	}
	return n
}

// Options are the per-session knobs of a create request.
type Options struct {
	// NoReductions and NoLiveness disable the corresponding analyses.
	NoReductions bool
	NoLiveness   bool
	// MaxOps bounds the profiling run (default DefaultMaxOps).
	MaxOps int64
	// Workers overrides the manager's analysis worker pool for this session.
	Workers int
	// ID pins the session id instead of generating one — the cluster
	// coordinator assigns ids up front so the hash ring can route them, and
	// drain replay recreates sessions under their original id. Creating a
	// duplicate id is an error.
	ID string
}

// Create parses, analyzes (through the shared content-hash cache, branched
// incrementally for this session) and profiles the program, then registers
// the new session, evicting the least recently used one if the table is
// full. The heavy work runs outside the manager lock.
func (m *Manager) Create(ctx context.Context, name, src string, opts Options) (*Session, error) {
	if opts.ID != "" {
		m.mu.Lock()
		_, dup := m.byID[opts.ID]
		m.mu.Unlock()
		if dup {
			return nil, fmt.Errorf("session id %q: %w", opts.ID, ErrDuplicateID)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = m.cfg.Workers
	}
	res, err := m.cfg.Cache.AnalyzeCtx(ctx, name, src, driver.Options{Workers: workers})
	if err != nil {
		return nil, err
	}

	exOpts := explorer.DefaultOptions()
	exOpts.UseReductions = !opts.NoReductions
	exOpts.UseLiveness = !opts.NoLiveness
	exOpts.Workers = workers
	exOpts.MaxOps = opts.MaxOps
	if exOpts.MaxOps <= 0 {
		exOpts.MaxOps = DefaultMaxOps
	}

	ex := explorer.NewUnstarted(driver.NewIncrementalFrom(res, driver.Options{Workers: workers}), exOpts)
	id := opts.ID
	if id == "" {
		id = newID()
	}
	s := &Session{
		id:      id,
		name:    res.Prog.Name,
		m:       m,
		created: m.cfg.now(),
		ex:      ex,
		src:     src,
		opts:    opts,
	}
	s.lastUsed = s.created
	s.event("created", fmt.Sprintf("program %s (%d procedures)", res.Prog.Name, len(res.Prog.Procs)))
	if err := ex.Analyze(); err != nil {
		return nil, err
	}
	s.event("analyzed", fmt.Sprintf("run %d: %d summaries recomputed, %d reused",
		ex.LastInc.Run, ex.LastInc.Recomputed, ex.LastInc.Reused))
	if err := ex.Profile(); err != nil {
		return nil, err
	}
	s.event("profiled", fmt.Sprintf("%d virtual ops", ex.Prof.TotalOps()))

	m.mu.Lock()
	if _, dup := m.byID[s.id]; dup {
		// Pinned-id race: a concurrent Create registered the id while the
		// heavy work above ran outside the lock.
		m.mu.Unlock()
		return nil, fmt.Errorf("session id %q: %w", s.id, ErrDuplicateID)
	}
	for len(m.byID) >= m.cfg.MaxSessions {
		victim := m.lru.Back()
		if victim == nil {
			break
		}
		m.removeLocked(victim.Value.(*Session))
		m.evictedFull.Add(1)
	}
	s.elem = m.lru.PushFront(s)
	m.byID[s.id] = s
	m.mu.Unlock()
	m.created.Add(1)
	return s, nil
}

// Get returns a live session and marks it used.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.byID[id]
	if !ok {
		return nil, false
	}
	s.lastUsed = m.cfg.now()
	m.lru.MoveToFront(s.elem)
	return s, true
}

// Delete removes a session explicitly.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.byID[id]
	if !ok {
		return false
	}
	m.removeLocked(s)
	m.deleted.Add(1)
	return true
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID)
}

func (m *Manager) removeLocked(s *Session) {
	delete(m.byID, s.id)
	m.lru.Remove(s.elem)
}

func (m *Manager) touch(s *Session) {
	m.mu.Lock()
	s.lastUsed = m.cfg.now()
	if s.elem != nil {
		m.lru.MoveToFront(s.elem)
	}
	m.mu.Unlock()
}

// Stats is the manager's observability snapshot for /v1/stats.
type Stats struct {
	Live        int   `json:"live"`
	MaxSessions int   `json:"max_sessions"`
	Created     int64 `json:"created"`
	Deleted     int64 `json:"deleted"`
	EvictedIdle int64 `json:"evicted_idle"`
	EvictedFull int64 `json:"evicted_full"`
	// IdleTTLSec is the eviction TTL in seconds.
	IdleTTLSec float64 `json:"idle_ttl_sec"`

	AssertsAccepted int64 `json:"asserts_accepted"`
	AssertsRejected int64 `json:"asserts_rejected"`
	// Drained / Imported count cluster handoffs: sessions serialized out via
	// /v1/drain and sessions rebuilt here from a peer's export.
	Drained  int64 `json:"drained"`
	Imported int64 `json:"imported"`
}

// Stats returns the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Live:            m.Len(),
		MaxSessions:     m.cfg.MaxSessions,
		Created:         m.created.Load(),
		Deleted:         m.deleted.Load(),
		EvictedIdle:     m.evictedIdle.Load(),
		EvictedFull:     m.evictedFull.Load(),
		IdleTTLSec:      m.cfg.IdleTTL.Seconds(),
		AssertsAccepted: m.assertsAccepted.Load(),
		AssertsRejected: m.assertsRejected.Load(),
		Drained:         m.drained.Load(),
		Imported:        m.imported.Load(),
	}
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("session: id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
