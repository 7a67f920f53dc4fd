// Package machine models the multiprocessors of the paper's evaluation —
// the 8-processor Digital AlphaServer 8400 (§4), the 4-processor SGI
// Challenge and the 32-processor SGI Origin 2000 (Fig 6-1) — as analytic
// cost models over the interpreter's virtual-time profiles. The models
// reproduce the *shape* of the paper's speedup results (who wins, where
// scalability knees appear), not the absolute 1999 numbers; see DESIGN.md's
// substitution notes.
package machine

import (
	"math"
	"strings"
)

// Model is one multiprocessor's cost parameters (abstract cycles).
type Model struct {
	Name  string
	Procs int
	// ClockMHz converts cycles to seconds for granularity reporting.
	ClockMHz float64
	// CyclesPerOp is the base cost of one interpreter operation.
	CyclesPerOp float64
	// SpawnCost is the fork/join overhead per parallel loop invocation.
	SpawnCost float64
	// LockCost is the cost of one lock acquire/release.
	LockCost float64
	// CacheElems is the per-processor cache capacity in array elements.
	CacheElems int64
	// MissPenalty scales the per-op slowdown when the working set spills
	// out of cache.
	MissPenalty float64
	// BusPenalty adds contention cost per processor beyond the first on
	// bus-based machines (0 for the Origin's scalable interconnect).
	BusPenalty float64
	// MemPorts bounds how many processors' cache-miss traffic the memory
	// system can serve concurrently.
	MemPorts float64
	// ReshuffleCost is the per-element cost of conflicting data
	// decompositions between consecutive parallel loops (§4.2.4).
	ReshuffleCost float64
}

// AlphaServer8400 models the bus-based 8-processor machine of Chapter 4:
// 300-MHz Alpha 21164s, 4 MB external caches, one 256-bit shared bus.
func AlphaServer8400() *Model {
	return &Model{
		Name: "Digital AlphaServer 8400", Procs: 8, ClockMHz: 300,
		CyclesPerOp: 1.0, SpawnCost: 12000, LockCost: 400,
		CacheElems: 512 * 1024, MissPenalty: 2.2, BusPenalty: 0.035, MemPorts: 2,
		ReshuffleCost: 4.0,
	}
}

// SGIChallenge models the 4-processor bus-based machine of Fig 6-1 (150-MHz
// R4400s, 1 MB secondary caches).
func SGIChallenge() *Model {
	return &Model{
		Name: "SGI Challenge", Procs: 4, ClockMHz: 150,
		CyclesPerOp: 1.3, SpawnCost: 9000, LockCost: 600,
		CacheElems: 128 * 1024, MissPenalty: 2.8, BusPenalty: 0.05, MemPorts: 1.5,
		ReshuffleCost: 5.0,
	}
}

// SGIOrigin models the 32-processor SGI Origin 2000 (195-MHz R10000s,
// 4 MB secondary caches, scalable interconnect).
func SGIOrigin() *Model {
	return &Model{
		Name: "SGI Origin 2000", Procs: 32, ClockMHz: 195,
		CyclesPerOp: 1.0, SpawnCost: 15000, LockCost: 500,
		CacheElems: 512 * 1024, MissPenalty: 3.2, BusPenalty: 0.0, MemPorts: 4,
		ReshuffleCost: 3.0,
	}
}

// ByName maps a user-facing machine name, in any case, to its model: ""
// (the default), "alpha", "alphaserver" or "alphaserver8400" name the
// AlphaServer 8400; "challenge" or "sgi-challenge" the SGI Challenge;
// "origin", "sgi-origin" or "origin2000" the SGI Origin 2000. It is the one
// table every front end (suifpar -machine, /v1/tune) resolves through.
func ByName(name string) (*Model, bool) {
	switch strings.ToLower(name) {
	case "", "alpha", "alphaserver", "alphaserver8400":
		return AlphaServer8400(), true
	case "challenge", "sgi-challenge":
		return SGIChallenge(), true
	case "origin", "sgi-origin", "origin2000":
		return SGIOrigin(), true
	}
	return nil, false
}

// LoopWork describes one loop's measured work and chosen transformation.
type LoopWork struct {
	ID string
	// Invocations, Iterations and TotalOps are the loop's profile.
	Invocations int64
	Iterations  int64
	TotalOps    int64
	// Parallel marks loops executed in parallel.
	Parallel bool
	// ReductionElems is the per-invocation reduction region size to
	// initialize and finalize (0 = no reduction), §6.3.2.
	ReductionElems int64
	// PerUpdateLock charges a lock per reduction update instead of
	// private-accumulator init/finalization (§6.3.5); Updates counts them.
	PerUpdateLock bool
	Updates       int64
	// PrivateElems is the per-invocation private-copy initialization size.
	PrivateElems int64
	// FinalizeElems is the last-iteration private write-back size.
	FinalizeElems int64
	// FootprintElems is the per-invocation working set (whole loop).
	FootprintElems int64
	// ConflictingDecomp charges a data reshuffle of the footprint between
	// this loop and its neighbors (§4.2.4's vsetuv/vqterm row/column clash).
	ConflictingDecomp bool
	// Streaming marks loops whose footprint is touched fresh on every
	// invocation (vector-style temporaries, §5.6): their miss traffic is
	// proportional to the footprint and saturates the memory ports no
	// matter how many processors run the compute. Array contraction turns
	// these into cache-resident loops.
	Streaming bool
	// StreamPasses counts how many times the footprint streams through
	// memory per run (defaults to Invocations; per-iteration temporaries
	// stream once per iteration).
	StreamPasses int64
	// StaggeredFinalize selects the §6.3.4 multi-lock finalization.
	StaggeredFinalize bool
}

// missFrac is the fraction of operations that miss: the working set beyond
// the aggregate cache of procs processors.
func (m *Model) missFrac(footprint int64, procs int) float64 {
	if footprint <= 0 {
		return 0
	}
	cache := float64(m.CacheElems) * float64(procs)
	fp := float64(footprint)
	if fp <= cache {
		return 0
	}
	return 1 - cache/fp
}

// memFactor is the sequential per-op slowdown for a working set.
func (m *Model) memFactor(footprint int64, procs int) float64 {
	return 1 + m.MissPenalty*m.missFrac(footprint, procs)
}

// busFactor models shared-bus contention growing with processor count.
func (m *Model) busFactor(procs int) float64 {
	if procs <= 1 {
		return 1
	}
	return 1 + m.BusPenalty*float64(procs-1)
}

// streamTraffic is the per-run cycles of cache-miss traffic for a
// streaming loop: the footprint is reloaded on every invocation.
func (m *Model) streamTraffic(w LoopWork) float64 {
	if !w.Streaming {
		return 0
	}
	fp := float64(w.FootprintElems)
	cache := float64(m.CacheElems)
	if fp <= cache {
		return 0
	}
	passes := float64(w.StreamPasses)
	if passes == 0 {
		passes = float64(w.Invocations)
	}
	return passes * (fp - cache) * m.MissPenalty * m.CyclesPerOp
}

// SeqTime is the modeled single-processor cycles for one loop.
func (m *Model) SeqTime(w LoopWork) float64 {
	base := float64(w.TotalOps) * m.CyclesPerOp
	if w.Streaming {
		return base + m.streamTraffic(w)
	}
	return base * m.memFactor(w.FootprintElems, 1)
}

// LoopTime returns the modeled cycles for one loop on procs processors.
func (m *Model) LoopTime(w LoopWork, procs int) float64 {
	seqCycles := m.SeqTime(w)
	if !w.Parallel || procs <= 1 {
		return seqCycles
	}
	inv := float64(w.Invocations)
	if inv == 0 {
		return 0
	}
	// Compute scales with processors; cache-miss traffic is served by a
	// bounded number of memory ports, which is what caps memory-bound loops
	// (the Fig 5-12 knee).
	ops := float64(w.TotalOps) * m.CyclesPerOp
	compute := ops * m.busFactor(procs) / float64(procs)
	ports := m.MemPorts
	if ports < 1 {
		ports = 1
	}
	if float64(procs) < ports {
		ports = float64(procs)
	}
	var miss float64
	if w.Streaming {
		miss = m.streamTraffic(w) / ports
	} else {
		// Resident data: each processor's share may fit its cache.
		perProc := w.FootprintElems / int64(procs)
		miss = ops * m.MissPenalty * m.missFrac(perProc, 1) / ports
	}
	body := compute + miss
	if floor := ops / float64(procs); body < floor {
		body = floor
	}
	overhead := inv * m.SpawnCost
	if w.ReductionElems > 0 {
		if w.PerUpdateLock {
			// §6.3.5: no init/finalize, but a lock per update, amortized
			// across processors.
			overhead += float64(w.Updates) * m.LockCost / float64(procs)
		} else {
			init := inv * float64(w.ReductionElems) * m.CyclesPerOp // parallel across procs, but per-proc copies
			final := inv * float64(w.ReductionElems) * m.CyclesPerOp
			if w.StaggeredFinalize {
				// Finalization proceeds concurrently on disjoint regions.
				final += inv * m.LockCost * 4
			} else {
				// Serialized: each processor in turn (§6.3.2's problem).
				final *= float64(procs)
				final += inv * m.LockCost * float64(procs)
			}
			overhead += init + final
		}
	}
	if w.PrivateElems > 0 {
		overhead += inv * float64(w.PrivateElems) * m.CyclesPerOp
	}
	if w.FinalizeElems > 0 {
		overhead += inv * float64(w.FinalizeElems) * m.CyclesPerOp
	}
	par := body + overhead
	if w.ConflictingDecomp {
		par += inv * float64(w.FootprintElems) * m.ReshuffleCost
	}
	// The run-time system suppresses parallel execution when the overhead
	// would overwhelm the benefit (§4.5).
	if par >= seqCycles {
		return seqCycles
	}
	return par
}

// Workload is a whole program: its loops plus the ops outside any of them.
type Workload struct {
	Loops     []LoopWork
	SerialOps int64 // ops outside all listed loops
}

// Time returns total modeled cycles on procs processors.
func (m *Model) Time(w Workload, procs int) float64 {
	t := float64(w.SerialOps) * m.CyclesPerOp
	for _, lw := range w.Loops {
		t += m.LoopTime(lw, procs)
	}
	return t
}

// Speedup returns Time(1)/Time(procs).
func (m *Model) Speedup(w Workload, procs int) float64 {
	t1 := m.Time(w, 1)
	tp := m.Time(w, procs)
	if tp == 0 {
		return 1
	}
	s := t1 / tp
	if s > float64(procs) {
		s = float64(procs) // modeled speedups are capped at linear
	}
	return math.Round(s*10) / 10
}

// Coverage returns the fraction of sequential time spent in parallel loops.
func (m *Model) Coverage(w Workload) float64 {
	var par, tot float64
	tot = float64(w.SerialOps)
	for _, lw := range w.Loops {
		tot += float64(lw.TotalOps)
		if lw.Parallel {
			par += float64(lw.TotalOps)
		}
	}
	if tot == 0 {
		return 0
	}
	return par / tot
}

// GranularityMs returns the average parallel-region length between
// synchronizations in milliseconds (§2.6).
func (m *Model) GranularityMs(w Workload) float64 {
	var ops, invs float64
	for _, lw := range w.Loops {
		if lw.Parallel && lw.Invocations > 0 {
			ops += float64(lw.TotalOps)
			invs += float64(lw.Invocations)
		}
	}
	if invs == 0 {
		return 0
	}
	return m.OpsToMs(ops / invs)
}

// OpsToMs converts a count of interpreter operations to milliseconds on this
// machine — the one place the clock enters a reported granularity.
func (m *Model) OpsToMs(ops float64) float64 {
	return ops * m.CyclesPerOp / (m.ClockMHz * 1e3)
}
