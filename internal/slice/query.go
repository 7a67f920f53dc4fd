package slice

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"suifx/internal/issa"
)

// Query errors a transport layer maps to its own status codes.
var (
	// ErrBadKind means the kind string is not program|data|control.
	ErrBadKind = errors.New("unknown slice kind (program|data|control)")
	// ErrNeedVar means a program/data slice was asked without a variable.
	ErrNeedVar = errors.New("program and data slices need a variable")
	// ErrEmpty means no slice was found at the anchor.
	ErrEmpty = errors.New("no slice found (check proc, line, and var)")
)

// Query computes a slice by kind over an already-built SSA graph and
// returns the lines per procedure, sorted, plus the normalized kind. It is
// the shared backend of the suifxd /v1/slice endpoint, the session /slice
// route, and the explorer CLI; proc and varName are canonicalized to upper
// case here so callers can pass user input verbatim.
func Query(g *issa.Graph, kind, proc, varName string, line int) (map[string][]int, string, error) {
	kind = strings.ToLower(kind)
	if kind == "" {
		kind = "program"
	}
	proc = strings.ToUpper(proc)
	varName = strings.ToUpper(varName)

	var res *Result
	switch kind {
	case "control":
		sl := New(g, Config{Kind: Program})
		res = sl.ControlSliceOfLine(proc, line)
	case "program", "data":
		if varName == "" {
			return nil, kind, fmt.Errorf("%s slice: %w", kind, ErrNeedVar)
		}
		k := Program
		if kind == "data" {
			k = Data
		}
		sl := New(g, Config{Kind: k})
		res = sl.OfUse(proc, varName, line)
	default:
		return nil, kind, fmt.Errorf("%q: %w", kind, ErrBadKind)
	}

	// Lines lists a control slice's extra statements too, under their procedure.
	out := map[string][]int{}
	for pname, lineSet := range res.Lines() {
		lines := make([]int, 0, len(lineSet))
		for l := range lineSet {
			lines = append(lines, l)
		}
		sort.Ints(lines)
		out[pname] = lines
	}
	if len(out) == 0 {
		return nil, kind, fmt.Errorf("%s line %d: %w", proc, line, ErrEmpty)
	}
	return out, kind, nil
}
