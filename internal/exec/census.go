package exec

import (
	"fmt"
	"io"
	"sort"

	"suifx/internal/ir"
)

// The fusion-pattern census: the measurement tool that chose the fused
// opcode set in fuse.go. It runs a program's unfused stream with per-pc
// execution counting enabled and aggregates the dynamic frequency of every
// adjacent fusable pair and triple, so the superinstruction set is grounded
// in real traces (the parallel workloads, the Nanz suite, and the corpus
// ladder) instead of guesses.

// PatternCount is one adjacent opcode sequence and its dynamic frequency.
type PatternCount struct {
	Pattern string // e.g. "opIdxAdd+opLoadGE" or "opConst+opAdd+opStoreG"
	Count   int64  // executions of the window head
}

// FusionCensus executes prog once on the plain stream as lowered — compiled
// here, uncached, without the fusion pass: it is the only reader of an
// unfused stream — and returns the dynamic pair/triple frequencies sorted
// by descending count. Windows starting at or crossing a control transfer
// are excluded, mirroring the fusion pass's window rule.
func FusionCensus(prog *ir.Program, out io.Writer) ([]PatternCount, error) {
	in := New(prog)
	if out != nil {
		in.Out = out
	}
	cd := compileProgram(prog, loweredOf(prog).lay, false)
	in.pcCount = make([]int64, len(cd.ins)+1) // one spare cell: see vm.pcCount
	if err := in.runCode(cd); err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for pc := 0; pc+1 < len(cd.ins); pc++ {
		n := in.pcCount[pc]
		a, b := cd.ins[pc].op, cd.ins[pc+1].op
		if n == 0 || isControlTransfer(a) {
			continue
		}
		counts[opName(a)+"+"+opName(b)] += n
		if pc+2 < len(cd.ins) && !isControlTransfer(b) {
			counts[opName(a)+"+"+opName(b)+"+"+opName(cd.ins[pc+2].op)] += n
		}
	}
	res := make([]PatternCount, 0, len(counts))
	for p, n := range counts {
		res = append(res, PatternCount{Pattern: p, Count: n})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Count != res[j].Count {
			return res[i].Count > res[j].Count
		}
		return res[i].Pattern < res[j].Pattern
	})
	return res, nil
}

// isControlTransfer reports whether the instruction may leave the
// fall-through path, ending a fusion window.
func isControlTransfer(op opcode) bool {
	switch op {
	case opJmp, opJZ, opAndJmp, opOrJmp, opLoopInit, opLoopHead, opLoopNext,
		opLoopNextHead, opLPJGT, opLPJLE, opLPJGTI, opLPJLEI,
		opCall, opReturn, opErr:
		return true
	}
	return false
}

func opName(op opcode) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

var opNames = [opcodeCount]string{
	opNop: "opNop", opConst: "opConst", opLoadG: "opLoadG", opLoadP: "opLoadP",
	opIdx: "opIdx", opIdxAdd: "opIdxAdd", opLoadGE: "opLoadGE", opLoadPE: "opLoadPE",
	opStoreG: "opStoreG", opStoreP: "opStoreP", opStoreGE: "opStoreGE", opStorePE: "opStorePE",
	opLoadGI: "opLoadGI", opLoadPI: "opLoadPI", opLoadGEI: "opLoadGEI", opLoadPEI: "opLoadPEI",
	opStoreGI: "opStoreGI", opStorePI: "opStorePI", opStoreGEI: "opStoreGEI", opStorePEI: "opStorePEI",
	opNeg: "opNeg", opNot: "opNot", opBool: "opBool",
	opAdd: "opAdd", opSub: "opSub", opMul: "opMul", opDiv: "opDiv",
	opEQ: "opEQ", opNE: "opNE", opLT: "opLT", opLE: "opLE", opGT: "opGT", opGE: "opGE",
	opAndJmp: "opAndJmp", opOrJmp: "opOrJmp", opIntrin: "opIntrin",
	opJmp: "opJmp", opJZ: "opJZ",
	opLoopInit: "opLoopInit", opLoopHead: "opLoopHead", opLoopNext: "opLoopNext",
	opArgAddrG: "opArgAddrG", opArgAddrP: "opArgAddrP", opCall: "opCall", opReturn: "opReturn",
	opWrite: "opWrite", opErr: "opErr",
	opLGIdx: "opLGIdx", opLPIdx: "opLPIdx", opLGIdxAdd: "opLGIdxAdd",
	opLGIdxLoadGE: "opLGIdxLoadGE", opLGIdxStoreGE: "opLGIdxStoreGE", opLGIdxStorePE: "opLGIdxStorePE",
	opIdxAddLoadGE: "opIdxAddLoadGE", opConstAddStoreG: "opConstAddStoreG",
	opJEQ: "opJEQ", opJNE: "opJNE", opJLT: "opJLT", opJLE: "opJLE", opJGT: "opJGT", opJGE: "opJGE",
	opLCAdd: "opLCAdd", opLCSub: "opLCSub", opLCMul: "opLCMul",
	opLGIdxI: "opLGIdxI", opLPIdxI: "opLPIdxI", opLGIdxAddI: "opLGIdxAddI",
	opLGIdxLoadGEI: "opLGIdxLoadGEI", opLGIdxStoreGEI: "opLGIdxStoreGEI", opLGIdxStorePEI: "opLGIdxStorePEI",
	opIdxAddLoadGEI: "opIdxAddLoadGEI", opConstAddStoreGI: "opConstAddStoreGI",
	opLCAddI: "opLCAddI", opLCSubI: "opLCSubI", opLCMulI: "opLCMulI",
	opLPIdxLoadGE: "opLPIdxLoadGE",
	opLoadGEAdd:   "opLoadGEAdd", opLoadGESub: "opLoadGESub", opLoadGEMul: "opLoadGEMul",
	opLCMulAdd: "opLCMulAdd", opLPJGT: "opLPJGT", opLPJLE: "opLPJLE",
	opLCIdx: "opLCIdx", opLCAddStoreG: "opLCAddStoreG",
	opLPIdxLoadGEI: "opLPIdxLoadGEI",
	opLoadGEAddI:   "opLoadGEAddI", opLoadGESubI: "opLoadGESubI", opLoadGEMulI: "opLoadGEMulI",
	opLCMulAddI: "opLCMulAddI", opLPJGTI: "opLPJGTI", opLPJLEI: "opLPJLEI",
	opLCIdxI: "opLCIdxI", opLCAddStoreGI: "opLCAddStoreGI",
	opLoopNextHead: "opLoopNextHead",
}
