// Package ir defines the intermediate representation for MiniF, the small
// Fortran-77-like language this reproduction analyzes in place of the paper's
// SUIF Fortran front end. The IR is hierarchical (procedures contain
// statement lists; DO loops contain bodies), keeps source line positions for
// slicing and visualization, and models the Fortran features the thesis's
// analyses depend on: COMMON blocks with per-procedure layouts, arrays with
// declared bounds, labeled DO loops, reference parameters, and subarray
// actual arguments (array-element starting points).
package ir

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Pos is a source position (1-based line number).
type Pos struct {
	Line int
}

func (p Pos) String() string { return fmt.Sprintf("line %d", p.Line) }

// Type classifies a symbol's element type.
type Type int

const (
	TReal Type = iota
	TInt
)

func (t Type) String() string {
	if t == TInt {
		return "INTEGER"
	}
	return "REAL"
}

// Dim is one array dimension with constant declared bounds (inclusive).
type Dim struct {
	Lo, Hi int64
}

// Size returns the number of elements along this dimension.
func (d Dim) Size() int64 { return d.Hi - d.Lo + 1 }

// Symbol is a scalar or array variable, parameter, or common-block member.
type Symbol struct {
	Name   string
	Type   Type
	Dims   []Dim  // nil for scalars
	Common string // common block name, "" if not in a common block
	// CommonOffset is the element offset of this symbol within its common
	// block's flat storage.
	CommonOffset int64
	IsParam      bool
	ParamIndex   int // position in the parameter list when IsParam
}

// IsArray reports whether the symbol is an array.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// maxElems is where NElems saturates, so neither the product of declared
// bounds nor a sum of counts over a program's symbols can overflow.
const maxElems = 1 << 40

// NElems returns the total declared element count (1 for scalars),
// saturating at 2^40.
func (s *Symbol) NElems() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		sz := d.Size()
		if sz <= 0 || sz > maxElems/n {
			return maxElems
		}
		n *= sz
	}
	return n
}

// CommonBlock records one procedure-independent common block: its flat size
// (the max over all per-procedure layouts) and the per-procedure member
// layouts, which may declare the same storage with different shapes — the
// aliasing pattern Chapter 5's live-range splitting targets.
type CommonBlock struct {
	Name string
	Size int64 // total elements (max over layouts)
	// Layouts maps procedure name to the symbols laid out over this block
	// in that procedure, in declaration order.
	Layouts map[string][]*Symbol
}

// Proc is one procedure (PROGRAM or SUBROUTINE).
type Proc struct {
	Name    string
	IsMain  bool
	Params  []*Symbol
	Syms    map[string]*Symbol
	Body    []Stmt
	Pos     Pos
	EndLine int
}

// Lookup returns the symbol named n, or nil.
func (p *Proc) Lookup(n string) *Symbol { return p.Syms[n] }

// SortedSyms returns the procedure's symbols in name order.
func (p *Proc) SortedSyms() []*Symbol {
	out := make([]*Symbol, 0, len(p.Syms))
	for _, s := range p.Syms {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Program is a whole MiniF program: a main program plus subroutines.
type Program struct {
	Name    string
	Procs   []*Proc
	ByName  map[string]*Proc
	Commons map[string]*CommonBlock
	Source  []string // original source lines, 1-based at index line-1

	// ExecCache holds the execution engine's lowered form of this program
	// (arena layout + bytecode), opaque here to avoid a dependency cycle.
	// It lives on the Program so the cache dies with the IR instead of
	// leaking through a global table keyed by pointers.
	ExecCache atomic.Value
}

// Main returns the main program procedure.
func (p *Program) Main() *Proc {
	for _, pr := range p.Procs {
		if pr.IsMain {
			return pr
		}
	}
	return nil
}

// Proc returns the procedure named n, or nil.
func (p *Program) Proc(n string) *Proc { return p.ByName[n] }

// SourceLine returns the text of the given 1-based source line ("" if out of
// range).
func (p *Program) SourceLine(line int) string {
	if line < 1 || line > len(p.Source) {
		return ""
	}
	return p.Source[line-1]
}

// LineCount returns the number of source lines, excluding blank and
// comment-only lines when countCode is true.
func (p *Program) LineCount(countCode bool) int {
	if !countCode {
		return len(p.Source)
	}
	n := 0
	for _, l := range p.Source {
		if isCodeLine(l) {
			n++
		}
	}
	return n
}

func isCodeLine(l string) bool {
	for _, r := range l {
		switch r {
		case ' ', '\t':
			continue
		case '!', '*':
			return false
		default:
			return true
		}
	}
	return false
}
