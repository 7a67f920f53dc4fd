// Command suifxd is the long-running SUIF Explorer analysis service: an
// HTTP/JSON daemon exposing the interprocedural analyses over a bounded
// summary cache.
//
// Endpoints:
//
//	POST /v1/analyze   full driver result: SCC schedule, summaries,
//	                   mod/ref effects, per-loop parallelization verdicts
//	POST /v1/slice     interprocedural program/data/control slices
//	POST /v1/profile   exec-based loop profile (virtual time per loop)
//	GET  /v1/stats     cache + server + session counters and histograms
//	GET  /debug/vars   expvar (includes the "suifxd" snapshot)
//	GET  /debug/pprof  standard pprof handlers
//
// Interactive sessions (the Guru dialogue):
//
//	POST   /v1/session              create: parse, analyze, profile once
//	GET    /v1/session/{id}         lifecycle snapshot
//	DELETE /v1/session/{id}         explicit teardown
//	GET    /v1/session/{id}/guru    ranked target-loop worklist
//	POST   /v1/session/{id}/assert  record an assertion; re-test its loop, re-rank
//	POST   /v1/session/{id}/slice   program/data/control slice
//	GET    /v1/session/{id}/why     per-loop "why (not) parallel" report
//	GET    /v1/session/{id}/events  the session's dialogue log
//
// Usage:
//
//	suifxd [-addr host:port] [-timeout 30s] [-max-concurrent 32]
//	       [-max-body 1048576] [-cache-cap 128] [-workers n]
//	       [-max-sessions 64] [-session-ttl 15m] [-session-sweep 30s]
//
// Coordinator mode shards programs and sessions across worker suifxd
// backends over a consistent-hash ring, with health probes, retries, hedged
// analyze reads, session drain/rebalance, and cluster-wide /v1/batch
// fan-out — same wire contract as a single worker:
//
//	suifxd -coordinator -workers=host1:port,host2:port [-addr host:port]
//	       [-probe-period 2s] [-fail-threshold 3] [-hedge-delay 300ms]
//	       [-max-conns-per-shard 8] [-batch-parallelism n] [-max-body n]
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// in-flight requests drain, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"suifx/internal/cluster"
	"suifx/internal/driver"
	"suifx/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7459", "listen address")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request analysis timeout")
	maxConc := flag.Int("max-concurrent", 32, "max concurrent heavy requests before 429 shedding")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes (larger gets 413)")
	cacheCap := flag.Int("cache-cap", driver.DefaultCacheCapacity, "summary cache capacity (LRU entries)")
	workers := flag.String("workers", "",
		"analysis worker pool size (0 = GOMAXPROCS); with -coordinator, the comma-separated worker URLs instead")
	maxSessions := flag.Int("max-sessions", 64, "max live interactive sessions (older sessions evicted LRU)")
	sessionTTL := flag.Duration("session-ttl", 15*time.Minute, "idle time before a session is evicted")
	sessionSweep := flag.Duration("session-sweep", 30*time.Second, "session eviction janitor period")
	coordinator := flag.Bool("coordinator", false,
		"run as cluster coordinator over the -workers URL list instead of analyzing locally")
	probePeriod := flag.Duration("probe-period", cluster.DefaultProbePeriod, "coordinator: worker heartbeat probe period")
	failThreshold := flag.Int("fail-threshold", cluster.DefaultFailThreshold, "coordinator: consecutive probe failures before a worker is ejected")
	hedgeDelay := flag.Duration("hedge-delay", cluster.DefaultHedgeDelay, "coordinator: hedge /v1/analyze to a second shard after this delay (negative disables)")
	maxConns := flag.Int("max-conns-per-shard", cluster.DefaultMaxConnsPerShard, "coordinator: max in-flight requests per worker")
	batchPar := flag.Int("batch-parallelism", 0, "coordinator: cluster-wide concurrent batch items (0 = 2 per worker)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: suifxd [flags]; see -h")
		os.Exit(2)
	}

	if *coordinator {
		runCoordinator(coordinatorConfig{
			addr: *addr, workers: *workers, maxBody: *maxBody,
			probePeriod: *probePeriod, failThreshold: *failThreshold,
			hedgeDelay: *hedgeDelay, maxConns: *maxConns, batchPar: *batchPar,
		})
		return
	}

	poolSize := 0
	if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "suifxd: -workers %q: want a pool size (or URLs with -coordinator)\n", *workers)
			os.Exit(2)
		}
		poolSize = n
	}

	cache := driver.Shared()
	if *cacheCap != driver.DefaultCacheCapacity {
		cache = driver.NewCacheCap(*cacheCap)
	}
	srv := server.New(server.Config{
		Addr:           *addr,
		MaxConcurrent:  *maxConc,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Workers:        poolSize,
		Cache:          cache,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		SessionSweep:   *sessionSweep,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := srv.ListenAndServe(ctx, func(addr string) {
		// The e2e harness parses this line to find the bound port.
		fmt.Printf("suifxd: listening on %s\n", addr)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "suifxd:", err)
		os.Exit(1)
	}
	fmt.Println("suifxd: graceful shutdown complete")
}

type coordinatorConfig struct {
	addr, workers string
	maxBody       int64
	probePeriod   time.Duration
	failThreshold int
	hedgeDelay    time.Duration
	maxConns      int
	batchPar      int
}

func runCoordinator(cc coordinatorConfig) {
	var urls []string
	for _, u := range strings.Split(cc.workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "suifxd: -coordinator needs -workers=url1,url2,...")
		os.Exit(2)
	}
	co, err := cluster.New(cluster.Config{
		Addr:             cc.addr,
		Workers:          urls,
		MaxBodyBytes:     cc.maxBody,
		ProbePeriod:      cc.probePeriod,
		FailThreshold:    cc.failThreshold,
		HedgeDelay:       cc.hedgeDelay,
		MaxConnsPerShard: cc.maxConns,
		BatchParallelism: cc.batchPar,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "suifxd:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("suifxd: coordinator over %d workers: %s\n", len(urls), strings.Join(urls, ", "))
	err = co.ListenAndServe(ctx, func(addr string) {
		// Same readiness line as worker mode; the e2e harness parses it.
		fmt.Printf("suifxd: listening on %s\n", addr)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "suifxd:", err)
		os.Exit(1)
	}
	fmt.Println("suifxd: graceful shutdown complete")
}
