package minif_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

var update = flag.Bool("update", false, "rewrite testdata/representatives.txt")

// representatives renders, for one program, the representative of every
// common storage key (block, offset, shape) as "PROC.NAME", one line per
// key in key order.
func representatives(name string, prog *ir.Program) []string {
	owner := map[*ir.Symbol]string{}
	for _, p := range prog.Procs {
		for _, s := range p.Syms {
			owner[s] = p.Name
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, p := range prog.Procs {
		for _, s := range p.SortedSyms() {
			if s.Common == "" {
				continue
			}
			rep := s.Canon()
			line := fmt.Sprintf("%s\t/%s/+%d %v\t%s.%s", name, s.Common, s.CommonOffset, s.Dims, owner[rep], rep.Name)
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestRepresentativesPinned pins the representative the parser links for
// every common storage key of every workload, every ladder tier (20k and
// 50k outside -short) and 40 generated programs. The file was generated
// when the summary pass still built its own table at analysis time, by the
// rule the parser now follows (procedures bottom-up, references in
// statement-walk order with the DO index first, then declared symbols by
// name); regenerate only for an intended change:
// `go test ./internal/minif -run TestRepresentativesPinned -update`
// (without -short).
func TestRepresentativesPinned(t *testing.T) {
	progs := graphInputs(t)
	var got []string
	for name, prog := range progs {
		got = append(got, representatives(name, prog)...)
	}
	sort.Strings(got)
	path := filepath.Join("testdata", "representatives.txt")
	if *update {
		if testing.Short() {
			t.Fatal("-update needs a run without -short")
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if prog, _, _ := strings.Cut(line, "\t"); progs[prog] != nil {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d storage keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("representative differs at key %d:\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestStorageLinked checks the linked model on one program: the
// representative is the callee's member (procedures bottom-up), each
// procedure resolves it to its own declaration, and storage a procedure
// does not declare, or declares in another shape, keeps its own symbol.
func TestStorageLinked(t *testing.T) {
	prog := minif.MustParse("t", `
      PROGRAM MAIN
      COMMON /B/ T(10), S
      REAL Y
      T(1) = 1
      CALL F
      END

      SUBROUTINE F
      COMMON /B/ W(10), R(2)
      W(2) = R(1)
      END
`)
	main, f := prog.Proc("MAIN"), prog.Proc("F")
	tm, s, y := main.Lookup("T"), main.Lookup("S"), main.Lookup("Y")
	w, r := f.Lookup("W"), f.Lookup("R")
	if tm.Canon() != w || w.Canon() != w {
		t.Fatalf("T and W link to %s and %s, want F's W for both", tm.Canon().Name, w.Canon().Name)
	}
	if main.Own(w) != tm || f.Own(tm) != w || main.Own(y) != y {
		t.Fatal("a procedure does not resolve the representative to its own member")
	}
	if main.Own(r) != r || f.Own(s) != s {
		t.Fatal("storage declared in another shape resolved to a different member")
	}
	keys := prog.Commons["B"].Keys()
	if len(keys) != 3 || keys[0] != w || keys[1] != r || keys[2] != s {
		t.Fatalf("keys of /B/ = %v, want W, then R (referenced) and S (declared) at offset 10", keys)
	}
}
