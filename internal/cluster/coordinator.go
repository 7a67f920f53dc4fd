package cluster

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"suifx/internal/server"
)

// Defaults for the zero-ish Config.
const (
	DefaultHedgeDelay    = 300 * time.Millisecond
	DefaultProbePeriod   = 2 * time.Second
	DefaultProbeTimeout  = 2 * time.Second
	DefaultFailThreshold = 3
)

// Config tunes a Coordinator.
type Config struct {
	// Addr is the coordinator's listen address (default "127.0.0.1:7460").
	Addr string
	// Workers are the backend base URLs (scheme optional; "host:port" gets
	// "http://"). At least one is required.
	Workers []string
	// MaxBodyBytes caps request bodies, mirroring the worker's 413 contract.
	// Default 1 MiB.
	MaxBodyBytes int64
	// MaxConnsPerShard bounds in-flight requests per worker. Default 8.
	MaxConnsPerShard int
	// RetryAttempts is the per-shard transient-retry budget. Default 3.
	RetryAttempts int
	// HedgeDelay arms a hedge for idempotent /v1/analyze calls: if the owner
	// hasn't answered within this delay, the same request is raced on the
	// next ring owner and the first answer wins. 0 means DefaultHedgeDelay;
	// negative disables hedging.
	HedgeDelay time.Duration
	// ProbePeriod / ProbeTimeout drive the /v1/stats heartbeat probes.
	// Defaults 2s / 2s.
	ProbePeriod  time.Duration
	ProbeTimeout time.Duration
	// FailThreshold ejects a worker after this many consecutive probe
	// failures; the next successful probe rejoins it (and triggers a session
	// rebalance). Default 3.
	FailThreshold int
	// Replicas is the ring's virtual-node count per worker. Default 64.
	Replicas int
	// BatchParallelism bounds cluster-wide concurrent batch items.
	// Default 2 per worker, max 32.
	BatchParallelism int
	// ShutdownGrace bounds graceful shutdown (default 5s).
	ShutdownGrace time.Duration
	// Client overrides the proxy HTTP client (tests inject httptest clients).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7460"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxConnsPerShard <= 0 {
		c.MaxConnsPerShard = DefaultMaxConnsPerShard
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = DefaultHedgeDelay
	}
	if c.ProbePeriod <= 0 {
		c.ProbePeriod = DefaultProbePeriod
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = DefaultProbeTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = 2 * len(c.Workers)
	}
	if c.BatchParallelism > 32 {
		c.BatchParallelism = 32
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: c.MaxConnsPerShard,
		}}
	}
	return c
}

// Coordinator fronts the worker fleet with the single-node wire contract.
type Coordinator struct {
	cfg    Config
	shards map[string]*shard
	order  []string // sorted worker URLs
	ring   atomic.Pointer[Ring]
	gen    atomic.Uint64
	mux    *http.ServeMux
	start  time.Time

	// reg tracks which worker hosts each live session — the source of truth
	// for sticky routing; the ring only decides initial and rebalanced
	// placement.
	regMu sync.Mutex
	reg   map[string]string // session id → worker URL

	sessionsDrained  atomic.Int64
	sessionsMigrated atomic.Int64
	sessionsLost     atomic.Int64
	batchItems       atomic.Int64
	batchRetries     atomic.Int64
	batchFailures    atomic.Int64

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a Coordinator over the worker URLs and starts its health
// prober; callers must Close it (ListenAndServe does so on the way out).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one worker URL")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		shards: map[string]*shard{},
		mux:    http.NewServeMux(),
		reg:    map[string]string{},
		start:  time.Now(),
		stop:   make(chan struct{}),
	}
	for _, raw := range cfg.Workers {
		u := normalizeWorkerURL(raw)
		if _, dup := c.shards[u]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q", u)
		}
		c.shards[u] = newShard(u, cfg.MaxConnsPerShard, cfg.Client, cfg.RetryAttempts)
		c.order = append(c.order, u)
	}
	sort.Strings(c.order)
	c.gen.Store(1)
	c.ring.Store(BuildRing(c.order, cfg.Replicas, 1))

	c.mux.Handle("POST /v1/analyze", c.proxyProgram("/v1/analyze", true))
	c.mux.Handle("POST /v1/slice", c.proxyProgram("/v1/slice", false))
	c.mux.Handle("POST /v1/profile", c.proxyProgram("/v1/profile", false))
	c.mux.Handle("POST /v1/tune", c.proxyProgram("/v1/tune", false))
	c.mux.Handle("POST /v1/batch", http.HandlerFunc(c.handleBatch))
	c.mux.Handle("GET /v1/stats", http.HandlerFunc(c.handleStats))
	c.mux.Handle("POST /v1/session", http.HandlerFunc(c.handleSessionCreate))
	c.mux.Handle("/v1/session/{id}", http.HandlerFunc(c.handleSessionSub))
	c.mux.Handle("/v1/session/{id}/{sub...}", http.HandlerFunc(c.handleSessionSub))

	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

func normalizeWorkerURL(u string) string {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Handler returns the coordinator's HTTP handler; like the worker's, the mux
// is wrapped so routing-level 404/405s share the JSON error envelope.
func (c *Coordinator) Handler() http.Handler { return server.EnvelopeHandler(c.mux) }

// Close stops the health prober. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
	})
}

// ListenAndServe serves until ctx is cancelled, then shuts down gracefully.
// ready, when non-nil, receives the bound address.
func (c *Coordinator) ListenAndServe(ctx context.Context, ready func(addr string)) error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: c.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		grace, cancel := context.WithTimeout(context.Background(), c.cfg.ShutdownGrace)
		defer cancel()
		_ = hs.Shutdown(grace)
	}()
	if ready != nil {
		ready(ln.Addr().String())
	}
	err = hs.Serve(ln)
	<-done
	c.Close()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// readBody reads a size-capped request body, mirroring the worker's
// 413 contract.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	r.Body = http.MaxBytesReader(nil, r.Body, limit)
	b, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, server.Errf(http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return nil, server.Errf(http.StatusBadRequest, "reading request: %v", err)
	}
	return b, nil
}

// ProgramKey is the shard key for program-scoped requests: named workloads
// by name (every shard resolves them identically), inline sources by content
// hash, so identical sources land on the same shard's summary cache.
// Exported so benchmarks and tools can model ring placement.
func ProgramKey(workload, source string) string {
	if workload != "" {
		return "wl:" + workload
	}
	h := sha256.Sum256([]byte(source))
	return "src:" + hex.EncodeToString(h[:])
}

func sessionKey(id string) string { return "sess:" + id }

// healthyOwners returns up to n live shards for the key, in failover order.
// It walks every ring member and skips the ones the prober has ejected: the
// prober flips a shard's health flag before it publishes the ring without
// that shard, and in between the stale ring still names the ejected shard as
// the owner of its keys. The next live member in ring order is the owner on
// the rebuilt ring, so routing does not depend on which of the two a request
// sees first.
func (c *Coordinator) healthyOwners(key string, n int) []*shard {
	out := make([]*shard, 0, min(n, len(c.order)))
	for _, u := range c.ring.Load().OwnerN(key, len(c.order)) {
		if len(out) == n {
			break
		}
		if sh := c.shards[u]; sh != nil && sh.healthy.Load() {
			out = append(out, sh)
		}
	}
	return out
}

// proxyProgram forwards a program-keyed endpoint to the owning shard, with
// sequential failover across surviving owners and, when hedge is set, a
// hedged second request after HedgeDelay (idempotent endpoints only).
func (c *Coordinator) proxyProgram(path string, hedge bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r, c.cfg.MaxBodyBytes)
		if err != nil {
			server.WriteError(w, server.StatusOf(err), err.Error())
			return
		}
		var sr struct {
			Source   string `json:"source"`
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			server.WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("malformed JSON request: %v", err))
			return
		}
		key := ProgramKey(sr.Workload, sr.Source)
		resp, err := c.fanDo(r.Context(), key, http.MethodPost, path, body, hedge)
		if err != nil {
			server.WriteError(w, server.StatusOf(err), err.Error())
			return
		}
		copyResponse(w, resp)
	})
}

// fanDo issues the request to the key's owner, failing over through the
// remaining healthy owners on transport-level failure. With hedge set and a
// second owner available, the hedge fires after HedgeDelay and the first
// answer wins (the straggler is drained in the background). A worker's HTTP
// response — any status — is an answer, never failed over: 4xx/5xx bodies
// are deterministic worker verdicts the client must see verbatim.
func (c *Coordinator) fanDo(ctx context.Context, key, method, path string, body []byte, hedge bool) (*http.Response, error) {
	candidates := c.healthyOwners(key, len(c.order))
	if len(candidates) == 0 {
		return nil, server.Errf(http.StatusServiceUnavailable, "no healthy workers")
	}
	hedgeDelay := c.cfg.HedgeDelay
	if !hedge || hedgeDelay < 0 || len(candidates) == 1 {
		hedgeDelay = 0
	}

	type result struct {
		resp *http.Response
		err  error
	}
	resCh := make(chan result, len(candidates))
	launched, finished := 0, 0
	launch := func(isHedge bool) {
		sh := candidates[launched]
		launched++
		if isHedge {
			sh.hedges.Add(1)
		}
		go func() {
			resp, err := sh.do(ctx, method, path, body)
			resCh <- result{resp, err}
		}()
	}
	launch(false)

	var hedgeTimer <-chan time.Time
	if hedgeDelay > 0 {
		t := time.NewTimer(hedgeDelay)
		defer t.Stop()
		hedgeTimer = t.C
	}

	var lastErr error
	for {
		select {
		case res := <-resCh:
			finished++
			if res.err == nil {
				// Reap any straggler so its pool slot is released.
				if outstanding := launched - finished; outstanding > 0 {
					go func() {
						for i := 0; i < outstanding; i++ {
							if r := <-resCh; r.err == nil {
								io.Copy(io.Discard, io.LimitReader(r.resp.Body, 1<<20))
								r.resp.Body.Close()
							}
						}
					}()
				}
				return res.resp, nil
			}
			lastErr = res.err
			if launched < len(candidates) {
				launch(false)
			} else if finished == launched {
				return nil, server.Errf(http.StatusBadGateway,
					"no worker could serve %s %s: %v", method, path, lastErr)
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launched < len(candidates) {
				launch(true)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// copyResponse relays the worker's response verbatim — same status, same
// body bytes — so coordinator and worker are wire-indistinguishable.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// --- session routing ---

func genSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: id entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func (c *Coordinator) regGet(id string) (string, bool) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	u, ok := c.reg[id]
	return u, ok
}

func (c *Coordinator) regSet(id, url string) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	c.reg[id] = url
}

func (c *Coordinator) regDelete(id string) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	delete(c.reg, id)
}

func (c *Coordinator) regLen() int {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return len(c.reg)
}

func (c *Coordinator) regSnapshot() map[string]string {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	out := make(map[string]string, len(c.reg))
	for id, u := range c.reg {
		out[id] = u
	}
	return out
}

// handleSessionCreate assigns the session id up front — the ring routes by
// id, so the id must exist before the owner is chosen — and registers the
// placement on success.
func (c *Coordinator) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r, c.cfg.MaxBodyBytes)
	if err != nil {
		server.WriteError(w, server.StatusOf(err), err.Error())
		return
	}
	var req server.SessionCreateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("malformed JSON request: %v", err))
		return
	}
	if req.ID == "" {
		req.ID = genSessionID()
	}
	buf, err := json.Marshal(&req)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	owners := c.healthyOwners(sessionKey(req.ID), 1)
	if len(owners) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	sh := owners[0]
	resp, err := sh.do(r.Context(), http.MethodPost, "/v1/session", buf)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("session create on %s: %v", sh.url, err))
		return
	}
	if resp.StatusCode == http.StatusOK {
		c.regSet(req.ID, sh.url)
	}
	copyResponse(w, resp)
}

// handleSessionSub forwards every /v1/session/{id}... subroute to the
// session's host verbatim — method included, so the worker still owns the
// 404/405 contract for unknown subroutes and wrong methods.
func (c *Coordinator) handleSessionSub(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	host, ok := c.regGet(id)
	if !ok {
		// Unknown to the registry: route by ring so the owning worker can
		// give the canonical "unknown session" 404.
		owners := c.healthyOwners(sessionKey(id), 1)
		if len(owners) == 0 {
			server.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
			return
		}
		host = owners[0].url
	}
	sh := c.shards[host]
	if sh == nil || !sh.healthy.Load() {
		server.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("worker %s hosting session %q is unavailable", host, id))
		return
	}
	body, err := readBody(r, c.cfg.MaxBodyBytes)
	if err != nil {
		server.WriteError(w, server.StatusOf(err), err.Error())
		return
	}
	if len(body) == 0 {
		body = nil
	}
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp, err := sh.do(r.Context(), r.Method, path, body)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("session %q on %s: %v", id, host, err))
		return
	}
	if r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK {
		c.regDelete(id)
	}
	copyResponse(w, resp)
}
