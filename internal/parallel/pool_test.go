package parallel

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/region"
	"suifx/internal/summary"
)

// loopVerdicts renders what the parallelizer decided, loop by loop.
func loopVerdicts(res *Result) []string {
	var out []string
	for _, li := range res.Ordered {
		line := fmt.Sprintf("%s parallelizable=%t chosen=%t under=%t", li.ID(), li.Dep.Parallelizable, li.Chosen, li.UnderParallel)
		for _, vr := range li.Dep.Vars {
			line += fmt.Sprintf(" %s=%s/%t", vr.Sym.Name, vr.Class, vr.NeedsFinalization)
		}
		out = append(out, line)
	}
	return out
}

// conditionalLoopsSrc has four loops in each of two procedures (the loops
// of one procedure alone stay on the caller), each asking the liveness
// oracle about a conditionally written scalar.
func conditionalLoopsSrc() string {
	var b strings.Builder
	loops := func() {
		for l := 10; l <= 40; l += 10 {
			fmt.Fprintf(&b, "      DO %d k = 1, 10\n        IF (k .GT. 5) p = k\n%d    CONTINUE\n", l, l)
		}
	}
	b.WriteString("      SUBROUTINE f\n      REAL p\n      INTEGER k\n")
	loops()
	b.WriteString("      END\n      PROGRAM main\n      REAL p\n      INTEGER k\n      CALL f\n")
	loops()
	b.WriteString("      END\n")
	return b.String()
}

// TestReparallelizePanicReachesCaller: the oracle panics on two workers at
// once, so at least one panic is on a helper goroutine. The panic must come
// out of ReparallelizeWith on the caller, not crash the process, and every
// helper must be gone afterwards.
func TestReparallelizePanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sum := summary.Analyze(minif.MustParse("cond", conditionalLoopsSrc()))
	if n := len(sum.Reg.LoopRegions()); n < 2 {
		t.Fatalf("%d loops; the pool needs two", n)
	}
	var (
		calls atomic.Int32
		both  = make(chan struct{})
	)
	oracle := func(*region.Region, *ir.Symbol) bool {
		switch calls.Add(1) {
		case 1:
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				return false // a single worker did all the calls
			}
		case 2:
			close(both)
		default:
			return false
		}
		panic("oracle failed")
	}
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "oracle failed" {
				t.Errorf("recovered %v, want the oracle's panic", r)
			}
		}()
		ReparallelizeWith(nil, sum, Config{DeadAtExit: oracle}, nil)
		t.Error("ReparallelizeWith returned normally")
	}()
	if calls.Load() < 2 {
		t.Error("only one worker reached the oracle")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the panic, %d before", n, before)
	}
}

// TestParallelizeSharedAnalysis: four goroutines parallelize one shared
// analysis at once, under the default oracle and under a shared Full
// oracle; every result equals the one-processor run. Run it under -race.
func TestParallelizeSharedAnalysis(t *testing.T) {
	tier, _ := corpus.TierByName("1k")
	p := tier.Generate()
	sum := summary.Analyze(minif.MustParse(p.Name, p.Source))
	configs := []Config{
		{UseReductions: true},
		{UseReductions: true, DeadAtExit: liveness.Analyze(sum, liveness.Full).Oracle()},
	}
	prevProcs := runtime.GOMAXPROCS(1)
	var want [][]string
	for _, cfg := range configs {
		want = append(want, loopVerdicts(ParallelizeWith(sum, cfg)))
	}
	runtime.GOMAXPROCS(max(prevProcs, 4))
	defer runtime.GOMAXPROCS(prevProcs)
	var wg sync.WaitGroup
	got := make([][][]string, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, cfg := range configs {
				got[g] = append(got[g], loopVerdicts(ParallelizeWith(sum, cfg)))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for c := range configs {
			if a, b := strings.Join(got[g][c], "\n"), strings.Join(want[c], "\n"); a != b {
				t.Errorf("goroutine %d, config %d: verdicts differ from the one-processor run", g, c)
			}
		}
	}
}

// goroutineID reads the running goroutine's number from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestOneProcedureRetestStaysOnCaller: re-testing one procedure's loops, as
// an assertion does, runs every dependence test on the calling goroutine.
func TestOneProcedureRetestStaysOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sum := summary.Analyze(minif.MustParse("cond", conditionalLoopsSrc()))
	var (
		mu  sync.Mutex
		ids = map[string]int{}
	)
	cfg := Config{DeadAtExit: func(*region.Region, *ir.Symbol) bool {
		mu.Lock()
		ids[goroutineID()]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // long enough for a helper to take a loop
		return false
	}}
	prev := ParallelizeWith(sum, cfg)
	clear(ids)
	ReparallelizeWith(prev, sum, cfg, func(proc string) bool { return proc == "F" })
	if caller := goroutineID(); len(ids) != 1 || ids[caller] != 4 {
		t.Errorf("oracle calls by goroutine %v, want all four on the caller %s", ids, caller)
	}
}

// BenchmarkConcurrentParallelize runs four ParallelizeWith calls at once on
// four different 600-line programs, as /v1/batch analyzes its items, so
// each call's dependence pool nests inside the batch's own: under the
// default oracle, and under an oracle given by the caller (the pool alone).
func BenchmarkConcurrentParallelize(b *testing.B) {
	knobs := corpus.Config{TargetLines: 600, CallDepth: 2, CallFanout: 2, LoopDepth: 2,
		AliasDensity: 0.2, ReductionMix: 0.3, TripLo: 2, TripHi: 10}
	var sums []*summary.Analysis
	var given []Config
	for k := 0; k < 4; k++ {
		sum := summary.Analyze(minif.MustParse(fmt.Sprint("p", k), corpus.Generate(int64(30000+k), knobs).Source))
		sums = append(sums, sum)
		given = append(given, Config{UseReductions: true, DeadAtExit: liveness.Analyze(sum, liveness.Full).ScalarOracle()})
	}
	run := func(b *testing.B, cfg func(k int) Config) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for k := range sums {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					ParallelizeWith(sums[k], cfg(k))
				}(k)
			}
			wg.Wait()
		}
	}
	b.Run("default", func(b *testing.B) { run(b, func(int) Config { return Config{UseReductions: true} }) })
	b.Run("given-oracle", func(b *testing.B) { run(b, func(k int) Config { return given[k] }) })
}
