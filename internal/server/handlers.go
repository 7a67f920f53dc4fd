package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/issa"
	"suifx/internal/liveness"
	"suifx/internal/modref"
	"suifx/internal/parallel"
	"suifx/internal/session"
	"suifx/internal/slice"
	"suifx/internal/tune"
	"suifx/internal/workloads"
)

// SourceRef names the program a request operates on: inline source or a
// built-in workload.
type SourceRef struct {
	Name     string `json:"name,omitempty"`
	Source   string `json:"source,omitempty"`
	Workload string `json:"workload,omitempty"`
}

func (sr SourceRef) resolve() (name, src string, err error) {
	switch {
	case sr.Workload != "":
		w, ok := workloads.Lookup(sr.Workload)
		if !ok {
			return "", "", errf(http.StatusNotFound, "unknown workload %q", sr.Workload)
		}
		return w.Name, w.Source, nil
	case sr.Source != "":
		name = sr.Name
		if name == "" {
			name = "request.f"
		}
		return name, sr.Source, nil
	default:
		return "", "", errf(http.StatusBadRequest, `request needs "source" or "workload"`)
	}
}

// analyze runs the cached interprocedural analysis, mapping driver errors
// to API statuses: parse failures are the client's fault (422), context
// ends pass through for the middleware to turn into 504/499.
func (s *Server) analyze(ctx context.Context, sr SourceRef, workers int) (*driver.Result, error) {
	name, src, err := sr.resolve()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	res, err := s.cache.AnalyzeCtx(ctx, name, src, driver.Options{Workers: workers})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	return res, nil
}

// --- POST /v1/analyze ---

// AnalyzeRequest asks for the full driver result of one program.
type AnalyzeRequest struct {
	SourceRef
	// Workers overrides the analysis worker pool size for this request.
	Workers int `json:"workers,omitempty"`
	// NoReductions disables reduction recognition.
	NoReductions bool `json:"no_reductions,omitempty"`
	// Liveness enables the array liveness oracle (Chapter 5).
	Liveness bool `json:"liveness,omitempty"`
}

// VarJSON is one variable's classification inside a loop.
type VarJSON struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Reduction   string `json:"reduction,omitempty"`
	ByAssertion bool   `json:"by_assertion,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// LoopJSON is one loop's parallelization verdict.
type LoopJSON struct {
	ID             string    `json:"id"`
	Lines          [2]int    `json:"lines"`
	Parallelizable bool      `json:"parallelizable"`
	Chosen         bool      `json:"chosen"`
	UnderParallel  bool      `json:"under_parallel,omitempty"`
	Vars           []VarJSON `json:"vars,omitempty"`
}

// ModRefJSON is one procedure's mod/ref effect summary.
type ModRefJSON struct {
	ModParams  []bool              `json:"mod_params,omitempty"`
	RefParams  []bool              `json:"ref_params,omitempty"`
	ModCommons map[string][]string `json:"mod_commons,omitempty"`
	RefCommons map[string][]string `json:"ref_commons,omitempty"`
}

// AnalyzeResponse is the full driver result.
type AnalyzeResponse struct {
	Name       string                `json:"name"`
	SourceHash string                `json:"source_hash"`
	Schedule   []driver.SCC          `json:"schedule"`
	Summaries  map[string]string     `json:"summaries"`
	ModRef     map[string]ModRefJSON `json:"modref"`
	Loops      []LoopJSON            `json:"loops"`
	Stats      parallel.Stats        `json:"stats"`
	// ElapsedMs is the server time spent computing this verdict: the time of
	// the request that rendered it, from its arrival to the rendered body
	// (cache lookup or analysis, then parallelization). Later requests for
	// the same program and options are served that body as is, so a cache
	// hit is byte-identical to the miss that rendered it.
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (s *Server) handleAnalyze(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req AnalyzeRequest
	if err := s.decodeJSON(r, &req); err != nil {
		return err
	}
	v, err := s.verdict(ctx, req.SourceRef, req.Workers, req.NoReductions, req.Liveness)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(v.body)
	return nil
}

// verdictKey selects one rendered verdict of a cache entry. Workers does not
// change the answer, so it is not part of the key.
type verdictKey struct{ noReductions, liveness bool }

// verdict is one program's rendered /v1/analyze answer under one
// verdictKey, memoized on the driver cache entry (driver.Result.Derived):
// the body exactly as the endpoint serves it, plus the fields a /v1/batch
// record carries. It holds bytes and counts only, so an entry's memo
// retains no parallelization result.
type verdict struct {
	body          []byte // indented AnalyzeResponse, trailing newline included
	sourceHash    string
	loops, chosen int
	// resultSHA256 fingerprints the compact encoding with ElapsedMs zeroed.
	resultSHA256 string
}

// verdict returns the memoized answer for (program, options), rendering it
// if this is the first request for that pair since the entry was cached.
// It is the shared /v1/analyze path, also run per batch item.
func (s *Server) verdict(ctx context.Context, sr SourceRef, workers int, noReductions, useLiveness bool) (*verdict, error) {
	start := time.Now()
	res, err := s.analyze(ctx, sr, workers)
	if err != nil {
		return nil, err
	}
	return res.Derived(verdictKey{noReductions, useLiveness}, func() any {
		return renderVerdict(res, noReductions, useLiveness, start)
	}).(*verdict), nil
}

// renderVerdict runs the parallelization pass over a cached analysis and
// renders it to the wire shape: the fingerprint from the compact encoding
// with ElapsedMs zeroed, the body from the indented one.
func renderVerdict(res *driver.Result, noReductions, useLiveness bool, start time.Time) *verdict {
	resp := analyzeResponse(res, noReductions, useLiveness)
	canon, err := json.Marshal(resp)
	if err != nil {
		panic(err) // strings, numbers, bools, slices and maps always encode
	}
	sum := sha256.Sum256(canon)
	resp.ElapsedMs = float64(time.Since(start)) / 1e6
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		panic(err)
	}
	return &verdict{
		body:         body.Bytes(),
		sourceHash:   resp.SourceHash,
		loops:        resp.Stats.TotalLoops,
		chosen:       resp.Stats.ChosenN,
		resultSHA256: hex.EncodeToString(sum[:]),
	}
}

// analyzeResponse is the /v1/analyze answer for a cached analysis: the
// parallelization pass under the request's options, in the wire shape,
// ElapsedMs left zero.
func analyzeResponse(res *driver.Result, noReductions, useLiveness bool) *AnalyzeResponse {
	cfg := parallel.Config{UseReductions: !noReductions}
	if useLiveness {
		cfg.DeadAtExit = liveness.Analyze(res.Sum, liveness.Full).Oracle()
	}
	par := parallel.ParallelizeWith(res.Sum, cfg)

	resp := &AnalyzeResponse{
		Name:       res.Prog.Name,
		SourceHash: res.SourceHash,
		Schedule:   driver.Schedule(res.Prog),
		Summaries:  map[string]string{},
		ModRef:     map[string]ModRefJSON{},
		Stats:      par.Stats(),
	}
	for name, t := range res.Sum.ProcSum {
		resp.Summaries[name] = t.String()
	}
	for name, eff := range res.Sum.MR.Effects {
		resp.ModRef[name] = modRefJSON(eff)
	}
	for _, li := range par.Ordered {
		lo, hi := li.Region.Lines()
		lj := LoopJSON{
			ID:             li.ID(),
			Lines:          [2]int{lo, hi},
			Parallelizable: li.Dep.Parallelizable,
			Chosen:         li.Chosen,
			UnderParallel:  li.UnderParallel,
		}
		for _, vr := range li.Dep.Vars {
			cls := vr.Class.String()
			if cls == "read-only" || cls == "index" {
				continue
			}
			lj.Vars = append(lj.Vars, VarJSON{
				Name:        vr.Sym.Name,
				Class:       cls,
				Reduction:   vr.RedOp,
				ByAssertion: vr.ByAssertion,
				Reason:      vr.Reason,
			})
		}
		resp.Loops = append(resp.Loops, lj)
	}
	return resp
}

func modRefJSON(eff *modref.Effects) ModRefJSON {
	if eff == nil {
		return ModRefJSON{}
	}
	ranges := func(m map[string][]modref.Range) map[string][]string {
		if len(m) == 0 {
			return nil
		}
		out := make(map[string][]string, len(m))
		for blk, rs := range m {
			strs := make([]string, len(rs))
			for i, r := range rs {
				strs[i] = fmtRange(r)
			}
			sort.Strings(strs)
			out[blk] = strs
		}
		return out
	}
	return ModRefJSON{
		ModParams:  eff.ModParam,
		RefParams:  eff.RefParam,
		ModCommons: ranges(eff.ModCommon),
		RefCommons: ranges(eff.RefCommon),
	}
}

func fmtRange(r modref.Range) string {
	if r.Lo == r.Hi {
		return strconv.FormatInt(r.Lo, 10)
	}
	return strconv.FormatInt(r.Lo, 10) + ".." + strconv.FormatInt(r.Hi, 10)
}

// --- POST /v1/slice ---

// SliceRequest asks for an interprocedural slice.
type SliceRequest struct {
	SourceRef
	// Proc is the (case-insensitive) procedure containing the anchor line.
	Proc string `json:"proc"`
	// Line is the 1-based source line of the anchor statement.
	Line int `json:"line"`
	// Var names the sliced variable use (required for program/data slices).
	Var string `json:"var,omitempty"`
	// Kind is "program" (default), "data", or "control".
	Kind string `json:"kind,omitempty"`
}

// SliceResponse lists the slice's lines per procedure.
type SliceResponse struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Procs maps procedure name to the sorted slice lines inside it.
	Procs map[string][]int `json:"procs"`
	Size  int              `json:"size"`
}

// issaKey selects a cache entry's ISSA graph, built once and then only read:
// every slice of the program shares it.
type issaKey struct{}

func (s *Server) handleSlice(ctx context.Context, r *http.Request) (any, error) {
	var req SliceRequest
	if err := s.decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Proc == "" || req.Line <= 0 {
		return nil, errf(http.StatusBadRequest, `slice needs "proc" and a positive "line"`)
	}
	res, err := s.analyze(ctx, req.SourceRef, 0)
	if err != nil {
		return nil, err
	}

	g := res.Derived(issaKey{}, func() any { return issa.Build(res.Prog) }).(*issa.Graph)
	procs, kind, err := slice.Query(g, req.Kind, req.Proc, req.Var, req.Line)
	if err != nil {
		return nil, sliceErr(err)
	}
	resp := &SliceResponse{Name: res.Prog.Name, Kind: kind, Procs: procs}
	for _, lines := range procs {
		resp.Size += len(lines)
	}
	return resp, nil
}

// sliceErr maps the slice package's sentinel errors to API statuses.
func sliceErr(err error) error {
	switch {
	case errors.Is(err, slice.ErrBadKind), errors.Is(err, slice.ErrNeedVar):
		return errf(http.StatusBadRequest, "%v", err)
	case errors.Is(err, slice.ErrEmpty):
		return errf(http.StatusNotFound, "%v", err)
	default:
		return err
	}
}

// --- POST /v1/profile ---

// ProfileRequest asks for an execution-based loop profile (§2.5.1).
type ProfileRequest struct {
	SourceRef
	// MaxOps bounds the interpreted execution (default 50M operations).
	MaxOps int64 `json:"max_ops,omitempty"`
	// Workers, when > 1, lowers the analysis' approved parallel loops to a
	// runtime plan and executes them on that many workers (§4.5 even-chunk
	// schedule). Loops nested inside a planned body run in workers without
	// instrumentation, so they don't appear in the profile.
	Workers int `json:"workers,omitempty"`
}

// ParallelLoopJSON is one planned loop's execution record.
type ParallelLoopJSON struct {
	Line        int    `json:"line"`
	Index       string `json:"index"`
	Invocations int64  `json:"invocations"`
	Workers     int    `json:"workers"`
	WorkerOps   int64  `json:"worker_ops"`
	CritOps     int64  `json:"crit_ops"`
}

// LoopProfileJSON is one loop's virtual-time record.
type LoopProfileJSON struct {
	ID               string  `json:"id"`
	Proc             string  `json:"proc"`
	Invocations      int64   `json:"invocations"`
	Iterations       int64   `json:"iterations"`
	TotalOps         int64   `json:"total_ops"`
	OpsPerInvocation float64 `json:"ops_per_invocation"`
}

// ProfileResponse is the whole-program loop profile, hottest loop first.
// The parallel fields are present only when the request set workers > 1:
// CriticalPathOps is total_ops with each planned loop's worker time
// replaced by its slowest worker, i.e. the run's §4.5 virtual-time cost.
type ProfileResponse struct {
	Name            string             `json:"name"`
	TotalOps        int64              `json:"total_ops"`
	Loops           []LoopProfileJSON  `json:"loops"`
	Workers         int                `json:"workers,omitempty"`
	CriticalPathOps int64              `json:"critical_path_ops,omitempty"`
	ParallelLoops   []ParallelLoopJSON `json:"parallel_loops,omitempty"`
}

func (s *Server) handleProfile(ctx context.Context, r *http.Request) (any, error) {
	var req ProfileRequest
	if err := s.decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Workers < 0 || req.Workers > 64 {
		return nil, errf(http.StatusUnprocessableEntity, "workers must be in [0, 64], got %d", req.Workers)
	}
	res, err := s.analyze(ctx, req.SourceRef, 0)
	if err != nil {
		return nil, err
	}
	var plan *exec.ParallelPlan
	if req.Workers > 1 {
		par := parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true})
		plan = parallel.BuildPlan(par, req.Workers)
	}
	maxOps := req.MaxOps
	if maxOps <= 0 {
		maxOps = 50_000_000
	}

	// The interpreter has no cancellation hook, so the run executes on its
	// own goroutine under the MaxOps budget (which bounds the stragglers a
	// timeout can strand) while this request observes ctx.
	type profOut struct {
		resp *ProfileResponse
		err  error
	}
	out := make(chan profOut, 1)
	go func() {
		var in *exec.Interp
		if plan != nil {
			in = exec.NewWithPlan(res.Prog, plan)
		} else {
			in = exec.New(res.Prog)
		}
		in.MaxOps = maxOps
		prof := exec.NewProfiler(in)
		if err := in.Run(); err != nil {
			out <- profOut{err: errf(http.StatusUnprocessableEntity, "execution failed: %v", err)}
			return
		}
		resp := &ProfileResponse{Name: res.Prog.Name, TotalOps: prof.TotalOps()}
		if plan != nil {
			resp.Workers = req.Workers
			resp.CriticalPathOps = in.CriticalPathOps()
			for _, st := range in.ParallelStats() {
				resp.ParallelLoops = append(resp.ParallelLoops, ParallelLoopJSON{
					Line:        st.Line,
					Index:       st.Index,
					Invocations: st.Invocations,
					Workers:     st.Workers,
					WorkerOps:   st.WorkerOps,
					CritOps:     st.CritOps,
				})
			}
		}
		for _, lp := range prof.Profiles() {
			resp.Loops = append(resp.Loops, LoopProfileJSON{
				ID:               lp.ID,
				Proc:             lp.Proc,
				Invocations:      lp.Invocations,
				Iterations:       lp.Iterations,
				TotalOps:         lp.TotalOps,
				OpsPerInvocation: lp.OpsPerInvocation(),
			})
		}
		out <- profOut{resp: resp}
	}()
	select {
	case o := <-out:
		return o.resp, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// --- GET /v1/stats ---

// StatsResponse is the service's observability snapshot.
type StatsResponse struct {
	Cache         driver.CacheStats `json:"cache"`
	InFlight      int64             `json:"in_flight"`
	Shed          int64             `json:"shed"`
	Panics        int64             `json:"panics"`
	MaxConcurrent int               `json:"max_concurrent"`
	UptimeSec     float64           `json:"uptime_sec"`
	// Exec reports the execution engine's process-wide counters (compiled
	// programs/procedures, instructions retired, runs per engine).
	Exec exec.Counters `json:"exec"`
	// Sessions reports the interactive session subsystem: live/created/
	// evicted counts and accepted/rejected assertions.
	Sessions session.Stats `json:"sessions"`
	// Tune reports the auto-tuning search counters: searches, plan runs,
	// variants scored/pruned, budget exhaustions and cancellations.
	Tune      tune.Counters            `json:"tune"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

func (s *Server) statsSnapshot() *StatsResponse {
	return &StatsResponse{
		Cache:         s.cache.Stats(),
		Sessions:      s.sessions.Stats(),
		InFlight:      s.m.inflight.Load(),
		Shed:          s.m.shed.Load(),
		Panics:        s.m.panics.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		UptimeSec:     time.Since(s.start).Seconds(),
		Exec:          exec.ReadCounters(),
		Tune:          tune.ReadCounters(),
		Endpoints:     s.m.endpoints(),
	}
}

func (s *Server) handleStats(ctx context.Context, r *http.Request) (any, error) {
	return s.statsSnapshot(), nil
}
