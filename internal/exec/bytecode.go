package exec

import (
	"sort"
	"sync"
	"sync/atomic"

	"suifx/internal/ir"
)

// This file defines the compiled ("lowered") form of a program: a flat
// arena layout shared by both engines, a closure-free bytecode instruction
// stream, and the per-program cache that holds them. A program is compiled
// once per ir.Program — lowered (compile.go), then fused to fixpoint
// (fuse.go) — and the VM (vm.go) executes it with no interface dispatch or
// per-node type switches on the hot path.

// layout is the deterministic arena layout of a program: commons first (in
// name order), then per-procedure static locals (in Procs order, symbols in
// name order), then a fixed scratch region for value arguments. Both the
// tree-walker and the bytecode engine use the same layout, so addresses —
// and therefore DDA results and Cells answers — are identical.
type layout struct {
	base     map[*ir.Symbol]int64
	blockOff map[string]int64
	tempBase int64
	size     int64
}

func newLayout(prog *ir.Program) *layout {
	lay := &layout{base: map[*ir.Symbol]int64{}, blockOff: map[string]int64{}}
	names := make([]string, 0, len(prog.Commons))
	for n := range prog.Commons {
		names = append(names, n)
	}
	sort.Strings(names)
	var size int64
	for _, n := range names {
		lay.blockOff[n] = size
		size += prog.Commons[n].Size
	}
	for _, p := range prog.Procs {
		for _, s := range p.SortedSyms() {
			if s.Common != "" || s.IsParam {
				continue
			}
			lay.base[s] = size
			size += s.NElems()
		}
	}
	lay.tempBase = size
	lay.size = size + tempCells
	return lay
}

// tempCells is the size of the scratch region for value arguments (fixed so
// the arena never reallocates during execution).
const tempCells = 1024

// opcode is one VM instruction kind. Operand addressing is resolved at
// compile time: *G opcodes carry absolute arena addresses, *P opcodes carry
// a parameter slot whose binding (an arena address) lives in the current
// frame. *E variants take a precomputed element offset from the eval stack.
// *I variants are the DDA-instrumented twins used only in the instrumented
// stream, so uninstrumented runs pay zero per-access overhead.
type opcode uint8

const (
	opNop opcode = iota

	// Pushes.
	opConst // push f
	opLoadG // push mem[a]
	opLoadP // push mem[param[a]]

	// Array addressing. opIdx pops an index value, bounds-checks it against
	// idx[a], and pushes (iv-lo)*stride. opIdxAdd does the same but adds
	// into the offset accumulated below it on the stack.
	opIdx
	opIdxAdd
	opLoadGE // pop off; push mem[a+off]
	opLoadPE // pop off; push mem[param[a]+off]

	// Stores.
	opStoreG  // pop v; mem[a] = v
	opStoreP  // pop v; mem[param[a]] = v
	opStoreGE // pop off, v; mem[a+off] = v
	opStorePE // pop off, v; mem[param[a]+off] = v

	// Instrumented twins (DDA stream only).
	opLoadGI
	opLoadPI
	opLoadGEI
	opLoadPEI
	opStoreGI
	opStorePI
	opStoreGEI
	opStorePEI

	// Arithmetic and logic (operate on the top of the eval stack).
	opNeg
	opNot
	opBool // normalize to 0/1 (logical result of .AND./.OR. right side)
	opAdd
	opSub
	opMul
	opDiv // a = source line for the divide-by-zero error
	opEQ
	opNE
	opLT
	opLE
	opGT
	opGE
	opAndJmp // if top == 0 jump a (keep 0), else pop
	opOrJmp  // if top != 0 replace with 1 and jump a, else pop
	opIntrin // a = intrinsic id, b = argc

	// Control flow.
	opJmp // pc = a
	opJZ  // pop c; if c == 0 pc = a

	// Loops. opLoopInit pops step, hi, lo, computes the trip count, pushes a
	// loop activation (loops[a]) and fires the enter event. opLoopHead
	// writes the index variable, then either starts an iteration (fires the
	// iter event) or pops the activation, fires exit, and jumps to b.
	// opLoopNext advances the induction state and jumps back to a (the head).
	opLoopInit
	opLoopHead
	opLoopNext

	// Calls. Argument slots are computed on the eval stack in order:
	// opArgAddrG/P push a binding address (base + optional offset popped
	// from the stack when b == 1); plain value expressions leave their value
	// (flagged by kind in callInfo). opCall binds them to callee params.
	opArgAddrG // push float64(a) + (b==1 ? pop off : 0)
	opArgAddrP // push float64(param[a]) + (b==1 ? pop off : 0)
	opCall     // a = callInfo index
	opReturn   // return from frame; from the outermost frame, halt

	opWrite // a = argc; pop argc values, Fprintln
	opErr   // fail with errs[a]

	// ------------------------------------------------------------------
	// Everything below is produced by the fusion pass (fuse.go, DESIGN.md
	// "The VM"); the lowering never emits these opcodes directly.

	// Fused superinstructions: semantics-preserving peephole combinations
	// of the pairs/triples that dominate dynamic traces (FusionCensus). The
	// set is what survived the reverse census: every form here (or a form
	// fused from it) is >= 0.5% of dispatched instructions on at least one
	// benchmark program, so some families have holes (no param-held-index
	// stores, no opLL*) — see DESIGN.md "The VM".
	// Ticks of the fused window are summed onto the fused instruction, so
	// virtual-time totals at loop events are unchanged, and bounds/divide
	// checks keep their source-line attribution through the idx table.
	opLGIdx    // opLoadG+opIdx: a=var addr, b=idx id; push offset
	opLPIdx    // opLoadP+opIdx: a=param slot, b=idx id
	opLGIdxAdd // opLoadG+opIdxAdd
	// Full 1-D element access in one dispatch: a=index var addr, b=idx id;
	// idx[b].base holds the array base folded with -lo*stride (global) or
	// the -lo*stride fold alone with idx[b].pslot = array param slot.
	opLGIdxLoadGE
	opLGIdxStoreGE
	opLGIdxStorePE
	// Final-dimension load: a=array base, b=idx id; the accumulated offset
	// stays on the stack (multi-dim arrays).
	opIdxAddLoadGE
	opConstAddStoreG // opConst+opAdd+opStoreG: mem[a] = pop + f
	// Compare-and-branch: pops two operands, jumps to a when the
	// comparison is FALSE (the opJZ half of the fused pair).
	opJEQ
	opJNE
	opJLT
	opJLE
	opJGT
	opJGE
	opLCAdd // opLoadG+opConst+arith: push mem[a] OP f
	opLCSub
	opLCMul

	// Instrumented twins of the fused forms (DDA streams). The window is
	// only fused when every instruction maps to the same source statement,
	// so fault-time source attribution covers the whole fused access.
	opLGIdxI
	opLPIdxI
	opLGIdxAddI
	opLGIdxLoadGEI
	opLGIdxStoreGEI
	opLGIdxStorePEI
	opIdxAddLoadGEI
	opConstAddStoreGI
	opLCAddI
	opLCSubI
	opLCMulI

	// Second-order fusions: the fusion pass runs to fixpoint, so pairs
	// whose head is itself a round-one fused op collapse further. These are
	// the chains the census shows dominating real traces once the
	// first-round set is applied (param-indexed element accesses, element
	// load feeding arithmetic, load-scale-accumulate).
	opLPIdxLoadGE // opLPIdx+opLoadGE: a=index param slot, b=idx id (base folded)
	opLoadGEAdd   // opLoadGE+arith: ..., x, off -> ..., x OP mem[a+off]
	opLoadGESub
	opLoadGEMul
	opLCMulAdd    // opLCMul+opAdd: stack top += mem[a]*f
	opLPJGT       // opLoadP+opJGT: pop x, fall through iff x > mem[params[b]]
	opLPJLE       // opLoadP+opJLE: pop x, fall through iff x <= mem[params[b]]
	opLCIdx       // opLCAdd+opIdx: push checked offset of index mem[a]+f in idx[b]
	opLCAddStoreG // opLCAdd+opStoreG: mem[b] = mem[a] + f, no stack traffic

	// Instrumented twins of the second-order fusions.
	opLPIdxLoadGEI
	opLoadGEAddI
	opLoadGESubI
	opLoadGEMulI
	opLCMulAddI
	opLPJGTI
	opLPJLEI
	opLCIdxI
	opLCAddStoreGI

	// Fused loop back-edge: opLoopNext whose target is an opLoopHead. One
	// dispatch advances the induction state and replays the head (index
	// write-back, trip test, iteration event). a=head pc
	// (body entry is a+1), b=the head's exit target.
	opLoopNextHead

	opcodeCount // sentinel: number of opcodes (name table, census)
)

// instr is one 24-byte instruction. tick is the amount of virtual time
// charged when the instruction executes (statement + expression-node ticks
// are folded onto instructions during lowering, preserving per-statement
// totals exactly).
type instr struct {
	op   opcode
	tick uint8
	a    int32
	b    int32
	f    float64
}

// idxData is the per-dimension metadata for opIdx/opIdxAdd. The fused
// full-access opcodes extend it with a precomputed base (the array base
// folded with -lo*stride) and, for param-bound arrays, the parameter slot
// the base resolves through.
type idxData struct {
	lo, hi, stride int64
	line           int32
	dim            int32
	name           string // array name, for the bounds error message
	base           int64  // fused: array base - lo*stride (or just -lo*stride with pslot)
	pslot          int32  // fused: array param slot (with base = -lo*stride)
}

// loopMeta is the static description of one lowered DO loop.
type loopMeta struct {
	loop     *ir.DoLoop
	proc     string
	line     int32
	idxParam bool  // index variable storage: parameter slot vs absolute
	idxOp    int32 // param slot or absolute address
}

// argKind distinguishes how a call argument slot binds.
const (
	argBind  = 0 // stack value is an arena address (by-reference binding)
	argValue = 1 // stack value is a value to spill into a scratch cell
)

type callInfo struct {
	name  string
	entry int32 // patched after all procs are lowered
	kinds []uint8
	line  int32
}

// code is a whole lowered program: one instruction stream covering every
// procedure, with side tables for array metadata, loops, and calls.
type code struct {
	lay          *layout
	ins          []instr
	stmtOf       []ir.Stmt // statement that produced each instruction (fusion windows)
	idx          []idxData
	loops        []loopMeta
	calls        []callInfo
	errs         []string
	entry        int32 // pc of the main program
	maxStack     int   // eval-stack high-water mark (statically known)
	instrumented bool
}

// lowered is the per-program compilation cache plus pooled run state. It is
// stored in ir.Program.ExecCache so it is shared by every Interp over the
// same parse and garbage-collected with it.
type lowered struct {
	lay *layout

	mu sync.Mutex
	// variants[instrumented]: the plain and the DDA-instrumented stream.
	variants [2]*code

	vmPool  sync.Pool // *vmScratch
	ddaPool sync.Pool // *ddaState
}

// loweredOf returns (building if needed) the lowered form of prog. A racy
// double-build is benign: both values are equivalent and one wins the
// Store.
func loweredOf(prog *ir.Program) *lowered {
	if v := prog.ExecCache.Load(); v != nil {
		return v.(*lowered)
	}
	low := &lowered{lay: newLayout(prog)}
	prog.ExecCache.Store(low)
	return prog.ExecCache.Load().(*lowered)
}

// InvalidateProgram drops prog's compiled-code cache so the next run
// recompiles every variant from the current IR. The cached streams depend
// on the ir.Program alone — no summary or assertion feeds them, and nothing
// mutates IR after parsing — so the product never needs this; it exists to
// time a cold compile. In-flight interpreters keep executing the code they
// already resolved; only new runs see the fresh cache.
func InvalidateProgram(prog *ir.Program) {
	prog.ExecCache.Store(&lowered{lay: newLayout(prog)})
}

// codeFor returns the plain or instrumented instruction stream, compiling
// it on first use: lowered once, then fused to fixpoint.
func (low *lowered) codeFor(prog *ir.Program, instrumented bool) *code {
	i := 0
	if instrumented {
		i = 1
	}
	low.mu.Lock()
	defer low.mu.Unlock()
	if low.variants[i] == nil {
		low.variants[i] = fuseCode(compileProgram(prog, low.lay, instrumented))
		counters.compiledProcs.Add(int64(len(prog.Procs)))
		counters.compiledPrograms.Add(1)
	}
	return low.variants[i]
}

// Engine counters exported through suifxd's /v1/stats. The fallback*
// counters attribute every tree-walker run to its cause, so a plan that
// unexpectedly runs off the VM is visible instead of silent.
var counters struct {
	compiledPrograms atomic.Int64
	compiledProcs    atomic.Int64
	compiledViews    atomic.Int64
	instructions     atomic.Int64
	bytecodeRuns     atomic.Int64
	treeRuns         atomic.Int64

	parallelLoopRuns atomic.Int64
	parallelWorkers  atomic.Int64

	fallbackMode      atomic.Int64
	fallbackAnalyzers atomic.Int64

	// Instructions eliminated by fusion at compile time.
	fusedInstructions atomic.Int64
}

// Counters is a snapshot of the execution engine's global counters.
type Counters struct {
	CompiledPrograms int64 `json:"compiled_programs"`
	CompiledProcs    int64 `json:"compiled_procs"`
	CompiledViews    int64 `json:"compiled_worker_views"`
	Instructions     int64 `json:"instructions_executed"`
	BytecodeRuns     int64 `json:"bytecode_runs"`
	TreeRuns         int64 `json:"tree_runs"`

	// Parallel engine: planned-loop invocations executed (either engine)
	// and worker goroutines spawned for them.
	ParallelLoopRuns int64 `json:"parallel_loop_runs"`
	ParallelWorkers  int64 `json:"parallel_workers"`

	// Tree-walker runs by cause: explicit ModeTree, or analyzer
	// attachments the VM cannot drive.
	FallbackMode      int64 `json:"fallbacks_mode"`
	FallbackAnalyzers int64 `json:"fallbacks_analyzers"`

	// Instructions removed by the superinstruction pass.
	FusedInstructions int64 `json:"fused_instructions"`

	// Compat shim (benchmark/ compiles against these; see ModeBytecode):
	// always 0 — user hooks, the register tier and the specialized loop
	// bodies are gone.
	FallbackHooks   int64 `json:"-"`
	RegIterations   int64 `json:"-"`
	SpecInvocations int64 `json:"-"`
}

// ReadCounters returns the current engine counters.
func ReadCounters() Counters {
	return Counters{
		CompiledPrograms:  counters.compiledPrograms.Load(),
		CompiledProcs:     counters.compiledProcs.Load(),
		CompiledViews:     counters.compiledViews.Load(),
		Instructions:      counters.instructions.Load(),
		BytecodeRuns:      counters.bytecodeRuns.Load(),
		TreeRuns:          counters.treeRuns.Load(),
		ParallelLoopRuns:  counters.parallelLoopRuns.Load(),
		ParallelWorkers:   counters.parallelWorkers.Load(),
		FallbackMode:      counters.fallbackMode.Load(),
		FallbackAnalyzers: counters.fallbackAnalyzers.Load(),
		FusedInstructions: counters.fusedInstructions.Load(),
	}
}
