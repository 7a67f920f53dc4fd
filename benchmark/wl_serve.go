package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"suifx/internal/cluster"
	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/server"
	"suifx/internal/workloads"
)

// Request classes of the serve-mix schedule, with their shares in percent.
const (
	clsHit = iota
	clsMiss
	clsProfile
	clsSlice
	clsSession
)

var classShare = [...]int{clsHit: 50, clsMiss: 15, clsProfile: 15, clsSlice: 10, clsSession: 10}

// hotSetSize is the number of programs cache-hit requests draw from; with
// hotConfig it is the BENCH_cluster manifest's shape.
const hotSetSize = 8

var hotConfig = corpus.Config{
	TargetLines: 600, CallDepth: 2, CallFanout: 2, LoopDepth: 2,
	AliasDensity: 0.2, ReductionMix: 0.3, TripLo: 2, TripHi: 10,
}

// workerCacheCap is each worker's summary-cache capacity. It holds the hot
// set and the mdg workload with room to spare, and is small enough that the
// miss stream fills it within the first seconds of a window: from then on
// misses evict each other, and memory and hit latency do not depend on how
// many requests a window happened to complete.
const workerCacheCap = 32

// hotSeed is the first hot-set generator seed, the legacy manifest's 9000.
// The hot set keeps these generator seeds under every benchmark seed and
// draws its knobs from the seed, like the ladder tiers (see perturb).
const hotSeed = 9000

// missSeed is the first generator seed of the miss stream: programs of a
// shape no cache has seen, a fresh range per benchmark seed.
func missSeed(seed int64) int64 { return 20000 + seed*1_000_003 }

// minSteps is the least number of scheduled requests a client sends in a
// window, however short: enough to draw every class and every hot program.
const minSteps = 48

// step is one scheduled request: its class and, for a cache hit, which hot
// program.
type step struct {
	class uint8
	hot   uint8
}

// schedule is one client's request sequence, fixed by (seed, client).
func schedule(seed int64, client, n int) []step {
	r := rand.New(rand.NewSource(seed*131 + int64(client) + 1))
	out := make([]step, n)
	for i := range out {
		roll := r.Intn(100)
		for c, share := range classShare {
			if roll < share {
				out[i] = step{class: uint8(c), hot: uint8(r.Intn(hotSetSize))}
				break
			}
			roll -= share
		}
	}
	return out
}

type hotProg struct {
	src  string
	body []byte // the /v1/analyze request
	ref  []byte // its first response, elapsed_ms stripped
}

// serveWL is the full suifxd stack over loopback TCP: a coordinator in front
// of two workers, nproc closed-loop clients.
type serveWL struct {
	workers []*server.Server
	servers []*httptest.Server // workers first, coordinator last
	co      *cluster.Coordinator
	coURL   string
	client  *http.Client

	cfg        corpus.Config // of every generated program: hotConfig, smaller at toy size
	minSteps   int
	hot        []hotProg
	profileOps int64  // the tree-walker's op count for mdg
	sliceRef   []byte // first /v1/slice response
	missBase   int64
	missN      int64
	mu         sync.Mutex
	requests2x int // 2xx requests of the untraced window
}

var (
	mdgBody    = []byte(`{"workload":"mdg"}`) // /v1/profile and session create
	sliceBody  = []byte(`{"workload":"mdg","proc":"interf","var":"rl","line":37}`)
	assertBody = []byte(`{"kind":"private","loop":"INTERF/1000","var":"RL"}`)
	elapsedRE  = regexp.MustCompile(`"elapsed_ms": ?[-+0-9.eE]+`)
)

func analyzeBody(name, src string) []byte {
	body, err := json.Marshal(server.AnalyzeRequest{SourceRef: server.SourceRef{Name: name, Source: src}})
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return body
}

func (w *serveWL) setup(b *bench) error {
	root := b.tr.root("setup")
	defer root.end()
	w.cfg, w.minSteps = hotConfig, minSteps
	n := hotSetSize
	if b.cfg.toy {
		n, w.cfg.TargetLines, w.minSteps = 2, 150, minSteps/2
	}
	w.hot = make([]hotProg, n)
	b.time(root.child("corpus.Generate"), "corpus.gen_ms", func() {
		for i := range w.hot {
			w.hot[i].src = corpus.Generate(hotSeed+int64(i), perturb(w.cfg, b.cfg.seed)).Source
		}
	})
	for i := range w.hot {
		w.hot[i].body = analyzeBody(fmt.Sprintf("hot-%d", i), w.hot[i].src)
	}
	w.missBase, w.missN = missSeed(b.cfg.seed), 0

	// Oracle for /v1/profile: the tree-walker's op count.
	want, _, err := execute(treeInterp(exec.New(workloads.ByName("mdg").Fresh())))
	if err != nil {
		return fmt.Errorf("mdg oracle run: %w", err)
	}
	w.profileOps = want.ops
	if b.cfg.corruptOracle {
		w.profileOps++
	}

	var urls []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Cache: driver.NewCacheCap(workerCacheCap)})
		ts := httptest.NewServer(srv.Handler())
		w.workers = append(w.workers, srv)
		w.servers = append(w.servers, ts)
		urls = append(urls, ts.URL)
	}
	w.co, err = cluster.New(cluster.Config{Workers: urls, HedgeDelay: -1})
	if err != nil {
		return err
	}
	cts := httptest.NewServer(w.co.Handler())
	w.servers = append(w.servers, cts)
	w.coURL = cts.URL
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0)}}

	// Warm every cache and record the reference responses.
	for i := range w.hot {
		_, body, _ := w.do(http.MethodPost, w.coURL+"/v1/analyze", w.hot[i].body)
		w.hot[i].ref = elapsedRE.ReplaceAll(body, nil)
	}
	_, _, _ = w.do(http.MethodPost, w.coURL+"/v1/profile", mdgBody)
	_, w.sliceRef, _ = w.do(http.MethodPost, w.coURL+"/v1/slice", sliceBody)
	var cl clientState
	for i := 0; i < 4; i++ {
		w.sessionStep(b, span{id: -1}, &cl, false)
	}
	return nil
}

// do sends one request and reads the whole reply; status 0 means the
// transport failed.
func (w *serveWL) do(method, url string, body []byte) (status int, reply []byte, d time.Duration) {
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error()), 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, []byte(err.Error()), time.Since(t0)
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error()), time.Since(t0)
	}
	return resp.StatusCode, reply, time.Since(t0)
}

// request sends one request of a class, records its client-side latency
// under "server.<class>" and counts it, failing it on a non-2xx status or
// when check rejects the reply. Warm-up requests (count false) are neither
// recorded nor counted.
func (w *serveWL) request(b *bench, parent span, count bool, class, method, url string, body []byte, check func(reply []byte) bool) []byte {
	s := parent.child("cluster.request/" + class)
	status, reply, d := w.do(method, url, body)
	s.end()
	if !count {
		return reply
	}
	b.obs("server."+class, d)
	b.tr.count("server.requests", 1)
	ok := status >= 200 && status < 300
	if ok && !b.tracedWindow {
		w.mu.Lock()
		w.requests2x++
		w.mu.Unlock()
	}
	if status == http.StatusTooManyRequests {
		b.obsVal("server.shed_429", 1)
	}
	b.op(ok && (check == nil || check(reply)), "%s %s: status %d, reply %.200q", class, url, status, reply)
	return reply
}

// clientState is one client's rolling session: create → guru → assert →
// delete, one step per scheduled session request.
type clientState struct {
	id   string
	next int
}

func (w *serveWL) sessionStep(b *bench, parent span, cl *clientState, count bool) {
	const class = "session_step"
	base := w.coURL + "/v1/session"
	switch cl.next {
	case 0:
		reply := w.request(b, parent, count, class, http.MethodPost, base, mdgBody, nil)
		var created server.SessionCreateResponse
		if json.Unmarshal(reply, &created) != nil || created.ID == "" {
			return // the failed create is already counted; retry it next time
		}
		cl.id = created.ID
	case 1:
		w.request(b, parent, count, class, http.MethodGet, base+"/"+cl.id+"/guru", nil, nil)
	case 2:
		w.request(b, parent, count, class, http.MethodPost, base+"/"+cl.id+"/assert", assertBody, func(reply []byte) bool {
			var out struct {
				Accepted bool `json:"accepted"`
			}
			return json.Unmarshal(reply, &out) == nil && out.Accepted
		})
	case 3:
		w.request(b, parent, count, class, http.MethodDelete, base+"/"+cl.id, nil, nil)
	}
	cl.next = (cl.next + 1) % 4
}

// freshSource returns a program no cache has seen.
func (w *serveWL) freshSource() (name, src string) {
	w.mu.Lock()
	n := w.missN
	w.missN++
	w.mu.Unlock()
	return fmt.Sprintf("miss-%d", n), corpus.Generate(w.missBase+n, w.cfg).Source
}

// one performs a scheduled step through the coordinator.
func (w *serveWL) one(b *bench, st step, cl *clientState) {
	root := b.tr.root("client.request")
	defer root.end()
	switch st.class {
	case clsHit:
		i := int(st.hot) % len(w.hot)
		h := &w.hot[i]
		w.request(b, root, true, fmt.Sprintf("analyze_hit.%d", i), http.MethodPost, w.coURL+"/v1/analyze", h.body, func(reply []byte) bool {
			b.obsVal("server.analyze.resp_kb", float64(len(reply))/1024)
			return bytes.Equal(elapsedRE.ReplaceAll(reply, nil), h.ref)
		})
	case clsMiss:
		name, src := w.freshSource()
		w.request(b, root, true, "analyze_miss", http.MethodPost, w.coURL+"/v1/analyze", analyzeBody(name, src), func(reply []byte) bool {
			var resp server.AnalyzeResponse
			return json.Unmarshal(reply, &resp) == nil && resp.Name == name && len(resp.Loops) > 0
		})
	case clsProfile:
		w.request(b, root, true, "profile", http.MethodPost, w.coURL+"/v1/profile", mdgBody, func(reply []byte) bool {
			var resp server.ProfileResponse
			return json.Unmarshal(reply, &resp) == nil && resp.TotalOps == w.profileOps
		})
	case clsSlice:
		w.request(b, root, true, "slice", http.MethodPost, w.coURL+"/v1/slice", sliceBody, func(reply []byte) bool {
			return bytes.Equal(reply, w.sliceRef)
		})
	case clsSession:
		w.sessionStep(b, root, cl, true)
	}
}

func (w *serveWL) timed(b *bench, d time.Duration) {
	clients := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sched := schedule(b.cfg.seed, c, 1<<14)
			var cl clientState
			for i := 0; i < w.minSteps || time.Since(t0) < d; i++ {
				w.one(b, sched[i%len(sched)], &cl)
			}
			for cl.next != 0 { // close the rolling session
				w.sessionStep(b, span{id: -1}, &cl, false)
			}
		}(c)
	}
	wg.Wait()
}

// batch streams one 16-item manifest through the coordinator.
func (w *serveWL) batch(b *bench) {
	items := make([]corpus.BatchItem, 16)
	if b.cfg.toy {
		items = items[:4]
	}
	for i := range items {
		cfg := w.cfg
		items[i] = corpus.BatchItem{Seed: w.missBase - 16 + int64(i), Config: &cfg}
	}
	body, err := json.Marshal(server.BatchRequest{Items: items})
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	root := b.tr.root("client.batch")
	var status int
	var reply []byte
	d := b.time(root.child("cluster.request/batch"), "cluster.batch_ms", func() {
		status, reply, _ = w.do(http.MethodPost, w.coURL+"/v1/batch", body)
	})
	root.end()
	var last []byte
	records := 0
	sc := bufio.NewScanner(bytes.NewReader(reply))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			records++
			last = append(last[:0], line...)
		}
	}
	var sum server.BatchSummary
	err = json.Unmarshal(last, &sum)
	b.op(status == http.StatusOK && err == nil && sum.Done && sum.OK == len(items) && records == len(items)+1,
		"batch: status %d, %d records, trailer %+v (%v)", status, records, sum, err)
	b.obsVal("cluster.batch_items_per_s", float64(len(items))/d.Seconds())
}

// sidecars split a hit's latency into coordinator hop, HTTP plus encoding,
// and analysis: one client sends each hot program's request through the
// coordinator, then straight to a worker, then runs the same parallelization
// in process — interleaved, so that a phase of interference reaches all
// three.
func (w *serveWL) sidecars(b *bench) {
	reps := 60
	if b.cfg.toy {
		reps = 4
	}
	direct := w.servers[0].URL + "/v1/analyze"
	for i := range w.hot { // warm the worker: it may not own every program
		w.do(http.MethodPost, direct, w.hot[i].body)
	}
	hit := func(series, url string, h *hotProg) {
		var status int
		var reply []byte
		b.time(b.tr.root("server.request/analyze_hit"), series, func() {
			status, reply, _ = w.do(http.MethodPost, url, h.body)
		})
		b.op(status == http.StatusOK && bytes.Equal(elapsedRE.ReplaceAll(reply, nil), h.ref), "%s: status %d", series, status)
	}
	for i := 0; i < reps; i++ {
		k := i % len(w.hot)
		h := &w.hot[k]
		hit(fmt.Sprintf("via.analyze_hit.%d", k), w.coURL+"/v1/analyze", h)
		hit(fmt.Sprintf("direct.analyze_hit.%d", k), direct, h)
		prog, err := minif.Parse("hot", h.src)
		if err != nil {
			b.op(false, "sidecar parse: %v", err)
			return
		}
		sum := driver.Analyze(prog, driver.Options{})
		b.time(b.tr.root("parallel.ParallelizeWith"), fmt.Sprintf("inproc.parallelize.%d", k), func() {
			parallel.ParallelizeWith(sum, batchConfig)
		})
	}
}

func (w *serveWL) finish(b *bench) {
	w.batch(b)
	b.series["server.analyze_hit"] = b.pooled(w.delaySeries("analyze_hit_ms")...)
	for _, c := range serveClasses {
		n := b.count("server." + c)
		b.set("server."+c+".ms_p50", b.med("server."+c), n)
		_, hiV := hiPercentile(b.series["server."+c])
		b.set("server."+c+".ms_hi", hiV, n)
	}
	b.set("serve_rps", float64(w.requests2x)/b.timedWall.Seconds(), w.requests2x)
	b.setCount("server.shed_429", float64(b.count("server.shed_429")))

	// Cache and cluster counters come from the services' own /v1/stats.
	var hits, misses, evictions float64
	for _, ts := range w.servers[:len(w.workers)] {
		var st server.StatsResponse
		_, reply, _ := w.do(http.MethodGet, ts.URL+"/v1/stats", nil)
		if err := json.Unmarshal(reply, &st); err != nil {
			b.op(false, "worker stats: %v", err)
			continue
		}
		hits += float64(st.Cache.Hits)
		misses += float64(st.Cache.Misses)
		evictions += float64(st.Cache.Evictions)
	}
	b.set("driver.cache.hit_share", hits/(hits+misses), int(hits+misses))
	b.setCount("driver.cache.evictions", evictions)
	cs := w.co.Stats().Cluster
	var retries, hedges, total, most float64
	for _, ws := range cs.Workers {
		retries += float64(ws.Retries)
		hedges += float64(ws.Hedges)
		total += float64(ws.Requests)
		most = max(most, float64(ws.Requests))
	}
	b.setCount("cluster.retries", retries+float64(cs.BatchRetries))
	b.setCount("cluster.hedges", hedges)
	b.set("cluster.shard_balance", most/(total/float64(len(cs.Workers))), int(total))
	if !b.cfg.trace {
		return
	}
	direct := b.geomeanOf("direct.analyze_hit.", w.hotNames())
	directN := b.count(prefixed("direct.analyze_hit.", w.hotNames())...)
	b.set("server.direct.analyze_hit_ms", direct, directN)
	b.set("cluster.hop_ms", b.geomeanOf("via.analyze_hit.", w.hotNames())-direct, directN)
	b.set("server.hit_overhead_ms", direct-b.geomeanOf("inproc.parallelize.", w.hotNames()), directN)
}

func (w *serveWL) hotNames() []string {
	names := make([]string, len(w.hot))
	for i := range names {
		names[i] = strconv.Itoa(i)
	}
	return names
}

// delaySeries: analyze_hit_ms has one series per hot program, so that a
// window's draw of programs does not move it; the other classes one each.
func (w *serveWL) delaySeries(name string) []string {
	switch name {
	case "analyze_hit_ms":
		return prefixed("server.analyze_hit.", w.hotNames())
	case "analyze_miss_ms":
		return []string{"server.analyze_miss"}
	}
	return []string{"server.profile"}
}

func (w *serveWL) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	for i := len(w.servers) - 1; i >= 0; i-- {
		w.servers[i].Close()
	}
	if w.co != nil {
		w.co.Close()
	}
	for _, srv := range w.workers {
		srv.Close()
	}
	w.workers, w.servers, w.co = nil, nil, nil
}
