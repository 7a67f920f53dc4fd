package exec

import "suifx/internal/ir"

// The superinstruction fusion pass (DESIGN.md "The VM"). A post-lowering
// peephole over the whole instruction stream
// fuses the opcode pairs and triples that dominate dynamic traces
// (FusionCensus over the parallel workloads, the Nanz suite, and the corpus
// ladder) into single fused opcodes with precomputed operand addresses.
//
// A window of 2-3 consecutive instructions may fuse only when
//   - no interior instruction is a jump target (control lands only on the
//     window head, which executes the whole window),
//   - every instruction came from the same source statement (so fault-time
//     source attribution is uniform across the window), and
//   - the summed virtual-time ticks fit the instruction's tick field.
// The summed tick preserves op totals exactly at every loop event; fault
// checks inside fused ops keep their idx-table source lines.

// fuseCode rewrites cd in place, running the peephole to fixpoint: pairs
// whose head is itself a fused op (opLPIdx+opLoadGE, opLCMul+opAdd)
// collapse on later rounds. Each round fuses windows, then remaps every
// pc-valued operand (jumps, loop heads/backedges, call entries) through the
// old→new pc map.
func fuseCode(cd *code) *code {
	for fuseOnce(cd) {
	}
	fuseBackEdges(cd)
	return cd
}

// fuseBackEdges rewrites every opLoopNext whose target is an opLoopHead
// into the combined opLoopNextHead, merging the two hottest dispatches in
// every loop trace (the census's top singles) into one. The rewrite is
// 1:1 — no instruction moves, so no pc remapping — and runs after the
// peephole fixpoint, which never fuses the head itself (it is always a
// jump target). The head stays in place for initial entry from
// opLoopInit; only back edges take the fused path.
func fuseBackEdges(cd *code) {
	fused := int64(0)
	for i := range cd.ins {
		in := &cd.ins[i]
		if in.op != opLoopNext {
			continue
		}
		head := &cd.ins[in.a]
		if head.op != opLoopHead {
			continue
		}
		t := int(in.tick) + int(head.tick)
		if t > 255 {
			continue
		}
		in.op, in.tick, in.b = opLoopNextHead, uint8(t), head.b
		fused++
	}
	counters.fusedInstructions.Add(fused)
}

// fuseOnce is one rewrite round; it reports whether anything fused.
func fuseOnce(cd *code) bool {
	n := len(cd.ins)
	target := make([]bool, n+1)
	mark := func(pc int32) {
		if pc >= 0 && int(pc) <= n {
			target[pc] = true
		}
	}
	mark(cd.entry)
	for i := range cd.ins {
		switch in := &cd.ins[i]; in.op {
		case opJmp, opJZ, opAndJmp, opOrJmp, opLoopNext,
			opJEQ, opJNE, opJLT, opJLE, opJGT, opJGE,
			opLPJGT, opLPJLE, opLPJGTI, opLPJLEI:
			mark(in.a)
		case opLoopHead:
			mark(in.b)
		}
	}
	for i := range cd.calls {
		mark(cd.calls[i].entry)
	}

	newIns := make([]instr, 0, n)
	newStmt := make([]ir.Stmt, 0, n)
	oldToNew := make([]int32, n+1)
	pc := 0
	for pc < n {
		w := 0
		var f instr
		// Triples before pairs, greedy left to right.
		if pc+2 < n && !target[pc+1] && !target[pc+2] &&
			cd.stmtOf[pc] == cd.stmtOf[pc+1] && cd.stmtOf[pc] == cd.stmtOf[pc+2] {
			if fi, ok := fuse3(cd, &cd.ins[pc], &cd.ins[pc+1], &cd.ins[pc+2]); ok {
				f, w = fi, 3
			}
		}
		if w == 0 && pc+1 < n && !target[pc+1] && cd.stmtOf[pc] == cd.stmtOf[pc+1] {
			if fi, ok := fuse2(cd, &cd.ins[pc], &cd.ins[pc+1]); ok {
				f, w = fi, 2
			}
		}
		if w == 0 {
			oldToNew[pc] = int32(len(newIns))
			newIns = append(newIns, cd.ins[pc])
			newStmt = append(newStmt, cd.stmtOf[pc])
			pc++
			continue
		}
		np := int32(len(newIns))
		for k := 0; k < w; k++ {
			oldToNew[pc+k] = np
		}
		newIns = append(newIns, f)
		newStmt = append(newStmt, cd.stmtOf[pc])
		pc += w
	}
	oldToNew[n] = int32(len(newIns))

	for i := range newIns {
		switch in := &newIns[i]; in.op {
		case opJmp, opJZ, opAndJmp, opOrJmp, opLoopNext,
			opJEQ, opJNE, opJLT, opJLE, opJGT, opJGE,
			opLPJGT, opLPJLE, opLPJGTI, opLPJLEI:
			in.a = oldToNew[in.a]
		case opLoopHead:
			in.b = oldToNew[in.b]
		}
	}
	cd.entry = oldToNew[cd.entry]
	for i := range cd.calls {
		cd.calls[i].entry = oldToNew[cd.calls[i].entry]
	}
	counters.fusedInstructions.Add(int64(n - len(newIns)))
	cd.ins = newIns
	cd.stmtOf = newStmt
	return len(newIns) < n
}

// fuse3 matches three-instruction windows. Full 1-D accesses fold the
// loop-invariant part of the address (array base - lo*stride) into the
// window's idx entry — safe because each idx entry belongs to exactly one
// emission site.
func fuse3(cd *code, a, b, c *instr) (instr, bool) {
	t := int(a.tick) + int(b.tick) + int(c.tick)
	if t > 255 {
		return instr{}, false
	}
	mk := func(op opcode, fa, fb int32, ff float64) (instr, bool) {
		return instr{op: op, tick: uint8(t), a: fa, b: fb, f: ff}, true
	}
	switch {
	case a.op == opLoadG && b.op == opIdx:
		d := &cd.idx[b.a]
		switch c.op {
		case opLoadGE:
			d.base = int64(c.a) - d.lo*d.stride
			return mk(opLGIdxLoadGE, a.a, b.a, 0)
		case opStoreGE:
			d.base = int64(c.a) - d.lo*d.stride
			return mk(opLGIdxStoreGE, a.a, b.a, 0)
		case opStorePE:
			d.base, d.pslot = -d.lo*d.stride, c.a
			return mk(opLGIdxStorePE, a.a, b.a, 0)
		}
	case a.op == opLoadGI && b.op == opIdx:
		d := &cd.idx[b.a]
		switch c.op {
		case opLoadGEI:
			d.base = int64(c.a) - d.lo*d.stride
			return mk(opLGIdxLoadGEI, a.a, b.a, 0)
		case opStoreGEI:
			d.base = int64(c.a) - d.lo*d.stride
			return mk(opLGIdxStoreGEI, a.a, b.a, 0)
		case opStorePEI:
			d.base, d.pslot = -d.lo*d.stride, c.a
			return mk(opLGIdxStorePEI, a.a, b.a, 0)
		}
	case a.op == opConst && b.op == opAdd && c.op == opStoreG:
		return mk(opConstAddStoreG, c.a, 0, a.f)
	case a.op == opConst && b.op == opAdd && c.op == opStoreGI:
		return mk(opConstAddStoreGI, c.a, 0, a.f)
	case a.op == opLoadG && b.op == opConst:
		switch c.op {
		case opAdd:
			return mk(opLCAdd, a.a, 0, b.f)
		case opSub:
			return mk(opLCSub, a.a, 0, b.f)
		case opMul:
			return mk(opLCMul, a.a, 0, b.f)
		}
	case a.op == opLoadGI && b.op == opConst:
		switch c.op {
		case opAdd:
			return mk(opLCAddI, a.a, 0, b.f)
		case opSub:
			return mk(opLCSubI, a.a, 0, b.f)
		case opMul:
			return mk(opLCMulI, a.a, 0, b.f)
		}
	}
	return instr{}, false
}

// fuse2 matches two-instruction windows, including second-round pairs whose
// head is itself a fused op.
func fuse2(cd *code, a, b *instr) (instr, bool) {
	t := int(a.tick) + int(b.tick)
	if t > 255 {
		return instr{}, false
	}
	mk := func(op opcode, fa, fb int32, ff float64) (instr, bool) {
		return instr{op: op, tick: uint8(t), a: fa, b: fb, f: ff}, true
	}
	switch a.op {
	case opLPIdx:
		if b.op == opLoadGE {
			d := &cd.idx[a.b]
			d.base = int64(b.a) - d.lo*d.stride
			return mk(opLPIdxLoadGE, a.a, a.b, 0)
		}
	case opLPIdxI:
		if b.op == opLoadGEI {
			d := &cd.idx[a.b]
			d.base = int64(b.a) - d.lo*d.stride
			return mk(opLPIdxLoadGEI, a.a, a.b, 0)
		}
	case opLoadGE:
		switch b.op {
		case opAdd:
			return mk(opLoadGEAdd, a.a, 0, 0)
		case opSub:
			return mk(opLoadGESub, a.a, 0, 0)
		case opMul:
			return mk(opLoadGEMul, a.a, 0, 0)
		}
	case opLoadGEI:
		switch b.op {
		case opAdd:
			return mk(opLoadGEAddI, a.a, 0, 0)
		case opSub:
			return mk(opLoadGESubI, a.a, 0, 0)
		case opMul:
			return mk(opLoadGEMulI, a.a, 0, 0)
		}
	case opLCMul:
		if b.op == opAdd {
			return mk(opLCMulAdd, a.a, 0, a.f)
		}
	case opLCMulI:
		if b.op == opAdd {
			return mk(opLCMulAddI, a.a, 0, a.f)
		}
	case opLCAdd:
		switch b.op {
		case opIdx:
			return mk(opLCIdx, a.a, b.a, a.f)
		case opStoreG:
			return mk(opLCAddStoreG, a.a, b.a, a.f)
		}
	case opLCAddI:
		switch b.op {
		case opIdx:
			return mk(opLCIdxI, a.a, b.a, a.f)
		case opStoreGI:
			return mk(opLCAddStoreGI, a.a, b.a, a.f)
		}
	case opLoadG:
		switch b.op {
		case opIdx:
			return mk(opLGIdx, a.a, b.a, 0)
		case opIdxAdd:
			return mk(opLGIdxAdd, a.a, b.a, 0)
		}
	case opLoadGI:
		switch b.op {
		case opIdx:
			return mk(opLGIdxI, a.a, b.a, 0)
		case opIdxAdd:
			return mk(opLGIdxAddI, a.a, b.a, 0)
		}
	case opLoadP:
		switch b.op {
		case opIdx:
			return mk(opLPIdx, a.a, b.a, 0)
		case opJGT:
			return mk(opLPJGT, b.a, a.a, 0)
		case opJLE:
			return mk(opLPJLE, b.a, a.a, 0)
		}
	case opLoadPI:
		switch b.op {
		case opIdx:
			return mk(opLPIdxI, a.a, b.a, 0)
		case opJGT:
			return mk(opLPJGTI, b.a, a.a, 0)
		case opJLE:
			return mk(opLPJLEI, b.a, a.a, 0)
		}
	case opIdxAdd:
		switch b.op {
		case opLoadGE:
			return mk(opIdxAddLoadGE, b.a, a.a, 0)
		case opLoadGEI:
			return mk(opIdxAddLoadGEI, b.a, a.a, 0)
		}
	case opEQ:
		if b.op == opJZ {
			return mk(opJEQ, b.a, 0, 0)
		}
	case opNE:
		if b.op == opJZ {
			return mk(opJNE, b.a, 0, 0)
		}
	case opLT:
		if b.op == opJZ {
			return mk(opJLT, b.a, 0, 0)
		}
	case opLE:
		if b.op == opJZ {
			return mk(opJLE, b.a, 0, 0)
		}
	case opGT:
		if b.op == opJZ {
			return mk(opJGT, b.a, 0, 0)
		}
	case opGE:
		if b.op == opJZ {
			return mk(opJGE, b.a, 0, 0)
		}
	}
	return instr{}, false
}
