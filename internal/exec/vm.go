package exec

import (
	"fmt"
	"io"
	"math"
)

// The bytecode VM. One flat instruction loop, no interface dispatch, no
// closures: loop events are nil-checked struct calls and data accesses are
// only instrumented in the DDA variant of the instruction stream.

// frameRT is one activation record.
type frameRT struct {
	retPC     int32
	pbase     int32 // start of this frame's params in paramStore
	loopBase  int32 // loopActs depth at entry (for unwinding on return)
	savedTemp int64
}

// loopAct is one live DO-loop activation.
type loopAct struct {
	li      int32
	it      int64
	trips   int64
	v       float64 // current index value
	step    float64
	idxAddr int64
}

// vmScratch is the pooled, reusable run state for one execution.
type vmScratch struct {
	stack      []float64
	paramStore []int64
	frames     []frameRT
	loopActs   []loopAct

	profInv   []int64
	profIters []int64
	profOps   []int64
	profStack []profFrame
}

func (sc *vmScratch) prepare(cd *code) {
	if len(sc.stack) < cd.maxStack {
		sc.stack = make([]float64, cd.maxStack)
	}
	nl := len(cd.loops)
	if len(sc.profInv) < nl {
		sc.profInv = make([]int64, nl)
		sc.profIters = make([]int64, nl)
		sc.profOps = make([]int64, nl)
	} else {
		for i := 0; i < nl; i++ {
			sc.profInv[i], sc.profIters[i], sc.profOps[i] = 0, 0, 0
		}
	}
	sc.paramStore = sc.paramStore[:0]
	sc.frames = sc.frames[:0]
	sc.loopActs = sc.loopActs[:0]
	sc.profStack = sc.profStack[:0]
}

type profFrame struct {
	li    int32
	start int64
}

// profState mirrors the Profiler's loop events onto flat per-loop arrays;
// the results are folded into the Profiler after the run.
type profState struct {
	inv, iters, tops []int64
	stack            []profFrame
}

// dynLevel is one level of the DDA's live loop stack: the clock values at
// which this activation and its current iteration began.
type dynLevel struct {
	li        int32
	sampled   bool
	act, iter uint64
}

// cellCarry caches one cell's carried dependences while one loop keeps
// carrying them; DynDep's maps see them when another loop carries a
// dependence at the cell or the run ends.
type cellCarry struct {
	n  int64
	li int32
}

// ddaState is the VM-native Dynamic Dependence Analyzer: one clock stamp
// per arena cell, the clock value of the cell's last recorded write. The
// clock ticks at every loop entry and every iteration, so a write
// happened in the current iteration of every level whose iteration began
// at or before its stamp, and before the activation of every level that
// began after it (DESIGN.md "Shadow-memory DDA: one clock stamp per
// cell"). States are pooled per program and the clock never goes back, so
// an earlier run's stamps are older than every activation of this one.
type ddaState struct {
	d         *DynDep
	cd        *code
	stamps    []uint64
	cells     []cellCarry
	clock     uint64
	stack     []dynLevel
	unsampled int // number of stack levels currently not sampled
	// A read can carry a dependence only if its stamp lies in [lo, lo+span):
	// from the outermost activation to the innermost iteration start.
	lo, span    uint64
	sampleEvery int64
	warm        int64
	accesses    int64
}

// begin readies a pooled state for one run over an n-cell arena.
func (st *ddaState) begin(d *DynDep, cd *code, n int) {
	if len(st.stamps) < n {
		st.stamps = make([]uint64, n)
		st.cells = make([]cellCarry, n)
	}
	st.d, st.cd = d, cd
	st.stack = st.stack[:0]
	st.unsampled, st.lo, st.span, st.accesses = 0, 0, 0, 0
	st.sampleEvery, st.warm = d.SampleEvery, d.SampleWarm
	if st.warm == 0 {
		st.warm = 2
	}
}

// end flushes every cached count into the analyzer's maps.
func (st *ddaState) end() {
	for addr := range st.cells {
		if st.cells[addr].n != 0 {
			st.flush(int64(addr))
		}
	}
	st.d.accesses += st.accesses
	st.d, st.cd = nil, nil
}

func (st *ddaState) sample(iter int64) bool {
	if st.sampleEvery <= 1 {
		return true
	}
	return iter < st.warm || iter%st.sampleEvery == 0
}

func (st *ddaState) read(addr int64) {
	if st.unsampled == 0 {
		st.accesses++
		if st.stamps[addr]-st.lo < st.span {
			st.carry(addr)
		}
	}
}

func (st *ddaState) write(addr int64) {
	if st.unsampled == 0 {
		st.accesses++
		st.stamps[addr] = st.clock
	}
}

// carry attributes a read of addr, whose last write lies between the
// outermost activation and the innermost iteration start, to the
// outermost loop whose current iteration began after the write — provided
// this activation of it began before.
func (st *ddaState) carry(addr int64) {
	t := st.stamps[addr]
	k := 0
	for st.stack[k].iter <= t {
		k++
	}
	lv := &st.stack[k]
	if lv.act > t {
		return // written before this activation: not carried by it
	}
	c := &st.cells[addr]
	if c.n != 0 && c.li != lv.li {
		st.flush(addr)
	}
	c.li = lv.li
	c.n++
}

// flush hands addr's cached count to the analyzer, which drops it if the
// compiler already resolved the variable for that loop.
func (st *ddaState) flush(addr int64) {
	c := &st.cells[addr]
	st.d.count(st.cd.loops[c.li].loop, addr, c.n)
	c.n = 0
}

// enter, iterate and exit track the loop stack and its clock stamps.
func (st *ddaState) enter(li int32) {
	st.clock++
	if len(st.stack) == 0 {
		st.lo = st.clock
	}
	st.stack = append(st.stack, dynLevel{li: li, act: st.clock, iter: st.clock})
	st.span = st.clock - st.lo
	st.unsampled++ // sampled=false until the first iteration event
}

func (st *ddaState) iterate(it int64) {
	st.clock++
	top := &st.stack[len(st.stack)-1]
	top.iter = st.clock
	st.span = st.clock - st.lo
	if s := st.sample(it); top.sampled != s {
		if s {
			st.unsampled--
		} else {
			st.unsampled++
		}
		top.sampled = s
	}
}

func (st *ddaState) exit() {
	m := len(st.stack) - 1
	if !st.stack[m].sampled {
		st.unsampled--
	}
	st.stack = st.stack[:m]
	if m == 0 {
		st.lo, st.span = 0, 0
	} else {
		st.span = st.stack[m-1].iter - st.lo
	}
}

// vm executes one compiled program over an Interp's arena.
type vm struct {
	cd         *code
	mem        []float64
	out        io.Writer
	stack      []float64
	paramStore []int64
	frames     []frameRT
	loopActs   []loopAct
	tempTop    int64
	tempLimit  int64
	ops        int64
	maxOps     int64
	events     bool
	prof       *profState
	dda        *ddaState
	// par dispatches approved parallel loops to per-worker views (nil on
	// worker VMs, so nested planned loops stay sequential inside a region).
	par *planRT
	// pcCount, when non-nil (census runs only), has one cell per
	// instruction plus one: during the run a difference array updated only
	// at the entry, taken transfers and the exit; per-pc execution counts
	// once the run has ended.
	pcCount []int64
	// instr counts retired instructions; whoever started the VM adds it to
	// the engine counter once.
	instr int64
}

func (v *vm) enterLoop(li int32) {
	// Event order matches the tree-walker's hook chain: profiler first,
	// then the dependence analyzer.
	if p := v.prof; p != nil {
		p.inv[li]++
		p.stack = append(p.stack, profFrame{li: li, start: v.ops})
	}
	if d := v.dda; d != nil {
		d.enter(li)
	}
}

func (v *vm) iterLoop(li int32, it int64) {
	if p := v.prof; p != nil {
		p.iters[li]++
	}
	if d := v.dda; d != nil {
		d.iterate(it)
	}
}

func (v *vm) exitLoopTop() {
	v.loopActs = v.loopActs[:len(v.loopActs)-1]
	if p := v.prof; p != nil {
		m := len(p.stack) - 1
		fr := p.stack[m]
		p.stack = p.stack[:m]
		p.tops[fr.li] += v.ops - fr.start
	}
	if d := v.dda; d != nil {
		d.exit()
	}
}

// unwindAll fires exit events for every live loop (innermost first, across
// frames) — the tree-walker does the same as an error propagates.
func (v *vm) unwindAll() {
	for len(v.loopActs) > 0 {
		if v.events {
			v.exitLoopTop()
		} else {
			v.loopActs = v.loopActs[:len(v.loopActs)-1]
		}
	}
}

func (v *vm) run() error {
	cd := v.cd
	ins := cd.ins
	mem := v.mem
	stack := v.stack
	sp := 0
	pc := cd.entry
	ops := v.ops
	maxOps := v.maxOps
	var tgt int32 // the target of a taken transfer

	v.frames = append(v.frames[:0], frameRT{retPC: -1, savedTemp: v.tempTop})
	// Worker views start with the dispatching frame's parameter bindings
	// pre-loaded in paramStore; a whole-program run starts with none.
	params := v.paramStore

	// The ops budget is checked at basic-block boundaries (control transfers,
	// calls/returns) and before every observable effect (opWrite, faulting
	// ops) instead of per instruction. Budget-exceeded errors therefore fire
	// within one basic block of the exact trigger point, with identical error
	// kind and output; only unobserved arena stores may run a few
	// instructions further (see compareRuns' budget relaxation).
	//
	// One dispatch is the fetch, the clock tick and the switch. Retired
	// instructions are counted per straight-line run, not per dispatch: a
	// taken transfer from pc to tgt adds pc+1−tgt (at transfer, below) and
	// the exit at pc adds pc+1−entry (finish); the terms telescope to one
	// per dispatched instruction, the last one included. No closure captures
	// what the loop modifies, so nothing forces ops, pc or sp into memory.
	if v.pcCount != nil {
		v.pcCount[pc]++
	}
	for {
		i := &ins[pc]
		ops += int64(i.tick)
		switch i.op {
		case opNop:

		case opConst:
			stack[sp] = i.f
			sp++
		case opLoadG:
			stack[sp] = mem[i.a]
			sp++
		case opLoadP:
			stack[sp] = mem[params[i.a]]
			sp++
		case opIdx:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.a]
			iv := roundIdx(stack[sp-1])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp-1] = float64((iv - d.lo) * d.stride)
		case opIdxAdd:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.a]
			iv := roundIdx(stack[sp-1])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			sp--
			stack[sp-1] += float64((iv - d.lo) * d.stride)
		case opLoadGE:
			stack[sp-1] = mem[int64(i.a)+int64(stack[sp-1])]
		case opLoadPE:
			stack[sp-1] = mem[params[i.a]+int64(stack[sp-1])]

		case opStoreG:
			sp--
			mem[i.a] = stack[sp]
		case opStoreP:
			sp--
			mem[params[i.a]] = stack[sp]
		case opStoreGE:
			off := int64(stack[sp-1])
			sp -= 2
			mem[int64(i.a)+off] = stack[sp]
		case opStorePE:
			off := int64(stack[sp-1])
			sp -= 2
			mem[params[i.a]+off] = stack[sp]

		case opLoadGI:
			v.dda.read(int64(i.a))
			stack[sp] = mem[i.a]
			sp++
		case opLoadPI:
			addr := params[i.a]
			v.dda.read(addr)
			stack[sp] = mem[addr]
			sp++
		case opLoadGEI:
			addr := int64(i.a) + int64(stack[sp-1])
			v.dda.read(addr)
			stack[sp-1] = mem[addr]
		case opLoadPEI:
			addr := params[i.a] + int64(stack[sp-1])
			v.dda.read(addr)
			stack[sp-1] = mem[addr]
		case opStoreGI:
			v.dda.write(int64(i.a))
			sp--
			mem[i.a] = stack[sp]
		case opStorePI:
			addr := params[i.a]
			v.dda.write(addr)
			sp--
			mem[addr] = stack[sp]
		case opStoreGEI:
			addr := int64(i.a) + int64(stack[sp-1])
			v.dda.write(addr)
			sp -= 2
			mem[addr] = stack[sp]
		case opStorePEI:
			addr := params[i.a] + int64(stack[sp-1])
			v.dda.write(addr)
			sp -= 2
			mem[addr] = stack[sp]

		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opNot:
			if stack[sp-1] == 0 {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opBool:
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
			}
		case opAdd:
			sp--
			stack[sp-1] += stack[sp]
		case opSub:
			sp--
			stack[sp-1] -= stack[sp]
		case opMul:
			sp--
			stack[sp-1] *= stack[sp]
		case opDiv:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp--
			if stack[sp] == 0 {
				return v.fail(fmt.Errorf("exec: line %d: division by zero", i.a), ops, pc)
			}
			stack[sp-1] /= stack[sp]
		case opEQ:
			sp--
			if stack[sp-1] == stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opNE:
			sp--
			if stack[sp-1] != stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opLT:
			sp--
			if stack[sp-1] < stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opLE:
			sp--
			if stack[sp-1] <= stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opGT:
			sp--
			if stack[sp-1] > stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opGE:
			sp--
			if stack[sp-1] >= stack[sp] {
				stack[sp-1] = 1
			} else {
				stack[sp-1] = 0
			}
		case opAndJmp:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			if stack[sp-1] == 0 {
				tgt = i.a
				goto transfer
			}
			sp--
		case opOrJmp:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			if stack[sp-1] != 0 {
				stack[sp-1] = 1
				tgt = i.a
				goto transfer
			}
			sp--
		case opIntrin:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			argc := int(i.b)
			args := stack[sp-argc : sp]
			r, err := applyIntrinsicID(i.a, args)
			if err != nil {
				return v.fail(err, ops, pc)
			}
			sp -= argc - 1
			stack[sp-1] = r

		case opJmp:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			tgt = i.a
			goto transfer
		case opJZ:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp--
			if stack[sp] == 0 {
				tgt = i.a
				goto transfer
			}

		case opLoopInit:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			step := stack[sp-1]
			hi := stack[sp-2]
			lo := stack[sp-3]
			sp -= 3
			lm := &cd.loops[i.a]
			if step == 0 {
				return v.fail(fmt.Errorf("exec: line %d: zero DO step", lm.line), ops, pc)
			}
			trips := tripCount(lo, hi, step)
			var ia int64
			if lm.idxParam {
				ia = params[lm.idxOp]
			} else {
				ia = int64(lm.idxOp)
			}
			if v.par != nil {
				if lrt := v.par.loops[lm.loop]; lrt != nil {
					// Parallel dispatch: run the even-chunk schedule on the
					// per-worker views, then land on opLoopHead with an
					// exhausted activation so the sequential exit path
					// (final index value, exit event) applies unchanged.
					v.loopActs = append(v.loopActs, loopAct{
						li: i.a, it: trips, trips: trips,
						v: lo + float64(trips)*step, step: step, idxAddr: ia,
					})
					if v.events {
						v.ops = ops
						v.enterLoop(i.a)
					}
					v.ops = ops
					err := v.par.runLoopVM(v, lrt, params, lo, step, trips)
					ops = v.ops
					if err != nil {
						mem[ia] = lo + float64(trips)*step
						return v.fail(err, ops, pc)
					}
					break
				}
			}
			v.loopActs = append(v.loopActs, loopAct{li: i.a, trips: trips, v: lo, step: step, idxAddr: ia})
			if v.events {
				v.ops = ops
				v.enterLoop(i.a)
			}
		case opLoopHead:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			act := &v.loopActs[len(v.loopActs)-1]
			mem[act.idxAddr] = act.v // Fortran leaves the index past the bound
			if act.it >= act.trips {
				if v.events {
					v.ops = ops
					v.exitLoopTop()
				} else {
					v.loopActs = v.loopActs[:len(v.loopActs)-1]
				}
				tgt = i.b
				goto transfer
			}
			if v.events {
				v.iterLoop(act.li, act.it)
			}
		case opLoopNext:
			act := &v.loopActs[len(v.loopActs)-1]
			act.it++
			act.v += act.step
			tgt = i.a
			goto transfer
		case opLoopNextHead:
			// Fused back edge: opLoopNext + opLoopHead in one dispatch. Both
			// ticks are charged up front, so the budget check fires at the
			// same virtual time the head's would.
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			act := &v.loopActs[len(v.loopActs)-1]
			act.it++
			act.v += act.step
			mem[act.idxAddr] = act.v
			if act.it >= act.trips {
				if v.events {
					v.ops = ops
					v.exitLoopTop()
				} else {
					v.loopActs = v.loopActs[:len(v.loopActs)-1]
				}
				tgt = i.b
				goto transfer
			}
			if v.events {
				v.iterLoop(act.li, act.it)
			}
			tgt = i.a + 1
			goto transfer

		case opArgAddrG:
			if i.b == 1 {
				stack[sp-1] += float64(i.a)
			} else {
				stack[sp] = float64(i.a)
				sp++
			}
		case opArgAddrP:
			base := float64(params[i.a])
			if i.b == 1 {
				stack[sp-1] += base
			} else {
				stack[sp] = base
				sp++
			}
		case opCall:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			ci := &cd.calls[i.a]
			n := len(ci.kinds)
			argBase := sp - n
			pbase := len(v.paramStore)
			savedTemp := v.tempTop
			for j := 0; j < n; j++ {
				val := stack[argBase+j]
				if ci.kinds[j] == argBind {
					v.paramStore = append(v.paramStore, int64(val))
				} else {
					if v.tempTop >= v.tempLimit {
						return v.fail(fmt.Errorf("exec: line %d: temporary stack overflow", ci.line), ops, pc)
					}
					mem[v.tempTop] = val
					v.paramStore = append(v.paramStore, v.tempTop)
					v.tempTop++
				}
			}
			sp = argBase
			v.frames = append(v.frames, frameRT{
				retPC: pc + 1, pbase: int32(pbase),
				loopBase: int32(len(v.loopActs)), savedTemp: savedTemp,
			})
			params = v.paramStore[pbase:]
			tgt = ci.entry
			goto transfer
		case opReturn:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			fr := v.frames[len(v.frames)-1]
			for int32(len(v.loopActs)) > fr.loopBase {
				if v.events {
					v.ops = ops
					v.exitLoopTop()
				} else {
					v.loopActs = v.loopActs[:len(v.loopActs)-1]
				}
			}
			v.tempTop = fr.savedTemp
			v.frames = v.frames[:len(v.frames)-1]
			if len(v.frames) == 0 {
				v.finish(ops, pc)
				return nil
			}
			v.paramStore = v.paramStore[:fr.pbase]
			outer := v.frames[len(v.frames)-1]
			params = v.paramStore[outer.pbase:]
			tgt = fr.retPC
			goto transfer

		case opWrite:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			n := int(i.a)
			vals := make([]interface{}, n)
			for j := 0; j < n; j++ {
				vals[j] = stack[sp-n+j]
			}
			sp -= n
			fmt.Fprintln(v.out, vals...)

		case opErr:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			return v.fail(fmt.Errorf("%s", cd.errs[i.a]), ops, pc)

		// ---- fused superinstructions (uninstrumented) ----

		case opLGIdx:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = float64((iv - d.lo) * d.stride)
			sp++
		case opLPIdx:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[params[i.a]])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = float64((iv - d.lo) * d.stride)
			sp++
		case opLGIdxAdd:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp-1] += float64((iv - d.lo) * d.stride)

		case opLGIdxLoadGE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = mem[d.base+iv*d.stride]
			sp++
		case opLGIdxStoreGE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			sp--
			mem[d.base+iv*d.stride] = stack[sp]
		case opLGIdxStorePE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			sp--
			mem[params[d.pslot]+d.base+iv*d.stride] = stack[sp]

		case opIdxAddLoadGE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(stack[sp-1])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			sp--
			stack[sp-1] = mem[int64(i.a)+int64(stack[sp-1])+(iv-d.lo)*d.stride]
		case opConstAddStoreG:
			sp--
			mem[i.a] = stack[sp] + i.f

		case opJEQ:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp -= 2
			if !(stack[sp] == stack[sp+1]) {
				tgt = i.a
				goto transfer
			}
		case opJNE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp -= 2
			if !(stack[sp] != stack[sp+1]) {
				tgt = i.a
				goto transfer
			}
		case opJLT:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp -= 2
			if !(stack[sp] < stack[sp+1]) {
				tgt = i.a
				goto transfer
			}
		case opJLE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp -= 2
			if !(stack[sp] <= stack[sp+1]) {
				tgt = i.a
				goto transfer
			}
		case opJGT:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp -= 2
			if !(stack[sp] > stack[sp+1]) {
				tgt = i.a
				goto transfer
			}
		case opJGE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp -= 2
			if !(stack[sp] >= stack[sp+1]) {
				tgt = i.a
				goto transfer
			}

		case opLCAdd:
			stack[sp] = mem[i.a] + i.f
			sp++
		case opLCSub:
			stack[sp] = mem[i.a] - i.f
			sp++
		case opLCMul:
			stack[sp] = mem[i.a] * i.f
			sp++

		// ---- instrumented twins. Analyzer calls replay the exact
		// component order of the unfused window, so access counts and
		// fault-time shadow state are bit-identical. ----

		case opLGIdxI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			v.dda.read(int64(i.a))
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = float64((iv - d.lo) * d.stride)
			sp++
		case opLPIdxI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			addr := params[i.a]
			v.dda.read(addr)
			d := &cd.idx[i.b]
			iv := roundIdx(mem[addr])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = float64((iv - d.lo) * d.stride)
			sp++
		case opLGIdxAddI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			v.dda.read(int64(i.a))
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp-1] += float64((iv - d.lo) * d.stride)

		case opLGIdxLoadGEI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			v.dda.read(int64(i.a))
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			addr := d.base + iv*d.stride
			v.dda.read(addr)
			stack[sp] = mem[addr]
			sp++
		case opLGIdxStoreGEI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			v.dda.read(int64(i.a))
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			addr := d.base + iv*d.stride
			v.dda.write(addr)
			sp--
			mem[addr] = stack[sp]
		case opLGIdxStorePEI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			v.dda.read(int64(i.a))
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			addr := params[d.pslot] + d.base + iv*d.stride
			v.dda.write(addr)
			sp--
			mem[addr] = stack[sp]

		case opIdxAddLoadGEI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(stack[sp-1])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			sp--
			addr := int64(i.a) + int64(stack[sp-1]) + (iv-d.lo)*d.stride
			v.dda.read(addr)
			stack[sp-1] = mem[addr]
		case opConstAddStoreGI:
			v.dda.write(int64(i.a))
			sp--
			mem[i.a] = stack[sp] + i.f

		case opLCAddI:
			v.dda.read(int64(i.a))
			stack[sp] = mem[i.a] + i.f
			sp++
		case opLCSubI:
			v.dda.read(int64(i.a))
			stack[sp] = mem[i.a] - i.f
			sp++
		case opLCMulI:
			v.dda.read(int64(i.a))
			stack[sp] = mem[i.a] * i.f
			sp++

		// ---- second-order fusions (uninstrumented) ----

		case opLPIdxLoadGE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[params[i.a]])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = mem[d.base+iv*d.stride]
			sp++

		case opLoadGEAdd:
			sp--
			stack[sp-1] += mem[int64(i.a)+int64(stack[sp])]
		case opLoadGESub:
			sp--
			stack[sp-1] -= mem[int64(i.a)+int64(stack[sp])]
		case opLoadGEMul:
			sp--
			stack[sp-1] *= mem[int64(i.a)+int64(stack[sp])]
		case opLCMulAdd:
			stack[sp-1] += mem[i.a] * i.f
		case opLPJGT:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp--
			if !(stack[sp] > mem[params[i.b]]) {
				tgt = i.a
				goto transfer
			}
		case opLPJLE:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			sp--
			if !(stack[sp] <= mem[params[i.b]]) {
				tgt = i.a
				goto transfer
			}
		case opLCIdx:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a] + i.f)
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = float64((iv - d.lo) * d.stride)
			sp++
		case opLCAddStoreG:
			mem[i.b] = mem[i.a] + i.f

		// ---- second-order instrumented twins ----

		case opLPIdxLoadGEI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			addr := params[i.a]
			v.dda.read(addr)
			d := &cd.idx[i.b]
			iv := roundIdx(mem[addr])
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			ea := d.base + iv*d.stride
			v.dda.read(ea)
			stack[sp] = mem[ea]
			sp++

		case opLoadGEAddI:
			sp--
			addr := int64(i.a) + int64(stack[sp])
			v.dda.read(addr)
			stack[sp-1] += mem[addr]
		case opLoadGESubI:
			sp--
			addr := int64(i.a) + int64(stack[sp])
			v.dda.read(addr)
			stack[sp-1] -= mem[addr]
		case opLoadGEMulI:
			sp--
			addr := int64(i.a) + int64(stack[sp])
			v.dda.read(addr)
			stack[sp-1] *= mem[addr]
		case opLCMulAddI:
			v.dda.read(int64(i.a))
			stack[sp-1] += mem[i.a] * i.f
		case opLPJGTI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			addr := params[i.b]
			v.dda.read(addr)
			sp--
			if !(stack[sp] > mem[addr]) {
				tgt = i.a
				goto transfer
			}
		case opLPJLEI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			addr := params[i.b]
			v.dda.read(addr)
			sp--
			if !(stack[sp] <= mem[addr]) {
				tgt = i.a
				goto transfer
			}
		case opLCIdxI:
			if ops > maxOps {
				return v.fail(budgetErr(maxOps), ops, pc)
			}
			v.dda.read(int64(i.a))
			d := &cd.idx[i.b]
			iv := roundIdx(mem[i.a] + i.f)
			if iv < d.lo || iv > d.hi {
				return v.fail(boundsErr(d, iv), ops, pc)
			}
			stack[sp] = float64((iv - d.lo) * d.stride)
			sp++
		case opLCAddStoreGI:
			v.dda.read(int64(i.a))
			v.dda.write(int64(i.b))
			mem[i.b] = mem[i.a] + i.f

		default:
			return v.fail(fmt.Errorf("exec: bad opcode %d at pc %d", i.op, pc), ops, pc)
		}
		pc++
		continue

	transfer:
		v.instr += int64(pc + 1 - tgt)
		if v.pcCount != nil {
			v.pcCount[pc+1]--
			v.pcCount[tgt]++
		}
		pc = tgt
	}
}

// finish ends a run at pc: it publishes the clock, adds the instructions
// retired since the last taken transfer, and turns the census's difference
// array into per-pc counts.
func (v *vm) finish(ops int64, pc int32) {
	v.ops = ops
	v.instr += int64(pc + 1 - v.cd.entry)
	if c := v.pcCount; c != nil {
		c[pc+1]--
		for k := 1; k < len(c); k++ {
			c[k] += c[k-1]
		}
	}
}

// fail ends a run at pc with err, firing exit events for every live loop
// and restoring the temporary stack as the tree-walker's deferred restores
// do.
func (v *vm) fail(err error, ops int64, pc int32) error {
	v.finish(ops, pc)
	v.unwindAll()
	v.tempTop = v.frames[0].savedTemp
	return err
}

// roundIdx is int64(math.Round(x)) for every float64 — NaN, ±Inf and
// out-of-range values included. An integral x, which is every subscript
// the workloads compute, converts without rounding: when float64(int64(x))
// == x, x is integral, so math.Round(x) == x.
func roundIdx(x float64) int64 {
	if iv := int64(x); float64(iv) == x {
		return iv
	}
	return int64(math.Round(x))
}

func budgetErr(maxOps int64) error {
	return fmt.Errorf("exec: operation budget exceeded (%d)", maxOps)
}

func boundsErr(d *idxData, iv int64) error {
	return fmt.Errorf("exec: line %d: index %d out of bounds %d:%d for %s dim %d",
		d.line, iv, d.lo, d.hi, d.name, d.dim)
}

func applyIntrinsicID(id int32, args []float64) (float64, error) {
	switch id {
	case inMIN:
		v := args[0]
		for _, a := range args[1:] {
			if a < v {
				v = a
			}
		}
		return v, nil
	case inMAX:
		v := args[0]
		for _, a := range args[1:] {
			if a > v {
				v = a
			}
		}
		return v, nil
	case inMOD:
		return math.Mod(args[0], args[1]), nil
	case inABS:
		return math.Abs(args[0]), nil
	case inSQRT:
		if args[0] < 0 {
			return 0, fmt.Errorf("exec: SQRT of negative value")
		}
		return math.Sqrt(args[0]), nil
	case inEXP:
		return math.Exp(args[0]), nil
	case inSIN:
		return math.Sin(args[0]), nil
	case inCOS:
		return math.Cos(args[0]), nil
	case inINT:
		return math.Trunc(args[0]), nil
	}
	return args[0], nil // inFLOAT
}
