// Package server turns the driver's interprocedural analyses into a
// long-running HTTP/JSON service: POST /v1/analyze (full driver result —
// SCC schedule, procedure summaries, mod/ref effects, parallelization
// verdicts), POST /v1/slice (interprocedural program/data/control slices),
// POST /v1/profile (exec-based loop profiles), and GET /v1/stats. The
// /v1/session routes host the interactive Guru dialogue: a POST creates a
// stateful session pinning a parsed program and its analysis, and the
// per-session guru/assert/slice/why/events subroutes drive it, re-testing
// only the asserted loop on every accepted assertion (internal/session).
//
// Every analysis request flows through a shared driver.Cache, so identical
// sources — from one client or sixty-four — cost one analysis run, and
// what is derived from an entry (the rendered /v1/analyze verdict per
// option set, the ISSA graph slices read) is built once on it. The
// service protects itself with a concurrency-limit semaphore (excess load
// is shed with 429), per-request timeouts that cancel queued SCC waves
// (504), a request body size cap (413), panic-to-500 recovery, and
// graceful shutdown; counters and latency histograms are exported over
// /v1/stats, expvar (/debug/vars) and /debug/pprof.
package server

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"suifx/internal/driver"
	"suifx/internal/session"
)

// Config tunes the service. The zero value is usable: every field falls
// back to the default documented on it.
type Config struct {
	// Addr is the listen address for ListenAndServe (default "127.0.0.1:7459").
	Addr string
	// MaxConcurrent bounds simultaneously executing heavy requests
	// (analyze/slice/profile); excess requests are shed with 429.
	// Default 32.
	MaxConcurrent int
	// RequestTimeout cancels a heavy request's context after this long;
	// the analysis abandons its remaining SCC waves and the client gets
	// 504. Default 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; larger sources get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// Workers is the per-analysis worker pool size (0 = GOMAXPROCS).
	Workers int
	// Cache is the summary cache to serve from (default driver.Shared()).
	Cache *driver.Cache
	// ShutdownGrace bounds graceful shutdown (default 5s).
	ShutdownGrace time.Duration
	// MaxSessions bounds the interactive session table; creating past the
	// bound evicts the least recently used session. Default 64.
	MaxSessions int
	// SessionTTL evicts sessions idle for this long. Default 15m.
	SessionTTL time.Duration
	// SessionSweep is the eviction janitor period. Default 30s.
	SessionSweep time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7459"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Cache == nil {
		c.Cache = driver.Shared()
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	return c
}

// Server is the suifxd analysis service.
type Server struct {
	cfg      Config
	cache    *driver.Cache
	sessions *session.Manager
	sem      chan struct{}
	m        *metrics
	mux      *http.ServeMux
	start    time.Time
}

// New builds a Server (not yet listening; see Handler and ListenAndServe).
// Callers embedding the Handler directly (tests) must Close the server to
// stop the session janitor; ListenAndServe does it on the way out.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: cfg.Cache,
		sessions: session.NewManager(session.Config{
			MaxSessions: cfg.MaxSessions,
			IdleTTL:     cfg.SessionTTL,
			SweepEvery:  cfg.SessionSweep,
			Cache:       cfg.Cache,
			Workers:     cfg.Workers,
		}),
		sem: make(chan struct{}, cfg.MaxConcurrent),
		m: newMetrics("analyze", "slice", "profile", "tune", "stats",
			"batch", "drain",
			"session_create", "session_get", "session_delete", "session_guru",
			"session_assert", "session_slice", "session_why", "session_events"),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.Handle("POST /v1/analyze", s.guard("analyze", true, cfg.RequestTimeout, s.handleAnalyze))
	s.mux.Handle("POST /v1/slice", s.endpoint("slice", true, s.handleSlice))
	s.mux.Handle("POST /v1/profile", s.endpoint("profile", true, s.handleProfile))
	s.mux.Handle("POST /v1/tune", s.endpoint("tune", true, s.handleTune))
	s.mux.Handle("POST /v1/batch", s.streamEndpoint("batch", s.handleBatch))
	s.mux.Handle("POST /v1/drain", s.endpoint("drain", false, s.handleDrain))
	s.mux.Handle("GET /v1/stats", s.endpoint("stats", false, s.handleStats))
	s.mux.Handle("POST /v1/session", s.endpoint("session_create", true, s.handleSessionCreate))
	s.mux.Handle("GET /v1/session/{id}", s.endpoint("session_get", false, s.handleSessionGet))
	s.mux.Handle("DELETE /v1/session/{id}", s.endpoint("session_delete", false, s.handleSessionDelete))
	s.mux.Handle("GET /v1/session/{id}/guru", s.endpoint("session_guru", false, s.handleSessionGuru))
	s.mux.Handle("POST /v1/session/{id}/assert", s.endpoint("session_assert", true, s.handleSessionAssert))
	s.mux.Handle("POST /v1/session/{id}/slice", s.endpoint("session_slice", true, s.handleSessionSlice))
	s.mux.Handle("GET /v1/session/{id}/why", s.endpoint("session_why", true, s.handleSessionWhy))
	s.mux.Handle("GET /v1/session/{id}/events", s.endpoint("session_events", false, s.handleSessionEvents))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("/debug/vars", expvarHandler())
	publishExpvar(s)
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding). The
// mux is wrapped so even routing-level errors (404 unknown route, 405 wrong
// method) come back in the service's JSON error envelope.
func (s *Server) Handler() http.Handler { return envelope{next: s.mux} }

// Close releases the server's background resources (the session janitor).
// It does not affect an in-progress ListenAndServe, which calls it itself.
func (s *Server) Close() { s.sessions.Close() }

// Sessions exposes the session manager (for tests and embedding).
func (s *Server) Sessions() *session.Manager { return s.sessions }

// ListenAndServe serves until ctx is cancelled, then shuts down gracefully:
// the listener closes, in-flight requests get ShutdownGrace to finish (the
// per-request timeout already bounds them), and nil is returned for a clean
// shutdown. ready, when non-nil, is called with the bound address before
// serving — callers use it to learn the port when Addr ends in ":0".
func (s *Server) ListenAndServe(ctx context.Context, ready func(addr string)) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	// Request contexts deliberately do not descend from ctx: in-flight
	// requests should drain within ShutdownGrace, not be cancelled the
	// instant shutdown begins (each is already bounded by RequestTimeout).
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		grace, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		_ = hs.Shutdown(grace)
	}()
	if ready != nil {
		ready(ln.Addr().String())
	}
	err = hs.Serve(ln)
	<-done
	s.Close()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}
