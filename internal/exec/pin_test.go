package exec_test

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/census, testdata/dda and testdata/reach")

// retired runs prog, with the profiler and full DDA attached when
// instrumented, and returns the instructions it added to the engine
// counter, its virtual time and its error text ("" on success).
func retired(t *testing.T, prog *ir.Program, maxOps int64, instrumented bool) (instr, ops int64, errText string) {
	t.Helper()
	in := exec.New(prog)
	in.Out = io.Discard
	in.MaxOps = maxOps
	if instrumented {
		exec.NewProfiler(in)
		exec.NewDynDep(in)
	}
	c0 := exec.ReadCounters()
	err := in.Run()
	c1 := exec.ReadCounters()
	if err != nil {
		errText = err.Error()
	}
	return c1.Instructions - c0.Instructions, in.Ops(), errText
}

// boundsSrc faults on a(11) in the middle of a basic block, inside a
// subroutine called from a loop, with loop events live on the way out.
const boundsSrc = `
      PROGRAM main
      REAL a(10), s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 12
        CALL step(a, s, i)
10    CONTINUE
      WRITE(*,*) s
      END

      SUBROUTINE step(a, s, i)
      REAL a(10), s
      INTEGER i
      s = s + 1.0
      a(i) = s * 2.0
      s = s + a(1)
      END
`

// branchSrc takes every kind of jump a lowered program has — both arms of
// IF/ELSE, short-circuit .AND. and .OR. either way, calls and returns — and
// ends with a STOP in the middle of the main program.
const branchSrc = `
      PROGRAM main
      REAL s
      INTEGER i
      s = 0.0
      DO 10 i = 1, 20
        IF (i .GT. 3 .AND. i .LT. 15) THEN
          s = s + 1.0
        ELSE
          s = s - 1.0
        ENDIF
        IF (i .EQ. 2 .OR. i .EQ. 7) THEN
          CALL bump(s)
        ENDIF
10    CONTINUE
      IF (s .NE. 12345.0) THEN
        STOP
      ENDIF
      WRITE(*,*) s
      END

      SUBROUTINE bump(s)
      REAL s
      s = s * 2.0
      END
`

// TestRetiredInstructionsPinned pins the retired-instruction counts the VM
// adds to Counters.Instructions, with virtual time and error: plain runs of
// the five exec-run programs, a program that takes every jump kind, a run
// stopped by the first budget check and a run that faults mid-block. Each
// runs on the plain stream and under profiler plus full DDA, which retire
// the same number of instructions. A run that ends without error also has
// its fused stream's per-pc census summed: it must count the same
// instructions. The counts were recorded while the VM still counted every
// dispatch, so they hold however the count is kept.
func TestRetiredInstructionsPinned(t *testing.T) {
	workload := func(name string) func() *ir.Program { return workloads.ByName(name).Fresh }
	source := func(name, src string) func() *ir.Program {
		return func() *ir.Program { return minif.MustParse(name, src) }
	}
	for _, tc := range []struct {
		name       string
		prog       func() *ir.Program
		maxOps     int64
		instr, ops int64
		err        string
	}{
		{"mdg", workload("mdg"), 0, 2423496, 3639588, ""},
		{"hydro", workload("hydro"), 0, 2327825, 2590105, ""},
		{"applu", workload("applu"), 0, 1000536, 1034429, ""},
		{"arc3d", workload("arc3d"), 0, 1580974, 1682886, ""},
		{"flo88", workload("flo88"), 0, 5662114, 5824669, ""},
		{"branches", source("branch", branchSrc), 0, 430, 409, ""},
		{"mdg at MaxOps 1", workload("mdg"), 1, 10, 9, "exec: operation budget exceeded (1)"},
		{"bounds fault", source("bounds", boundsSrc), 0, 229, 165,
			"exec: line 16: index 11 out of bounds 1:10 for A dim 1"},
	} {
		for _, instrumented := range []bool{false, true} {
			instr, ops, err := retired(t, tc.prog(), tc.maxOps, instrumented)
			if instr != tc.instr || ops != tc.ops || err != tc.err {
				t.Errorf("%s (instrumented %v): %d instructions, %d ops, error %q; want %d, %d, %q",
					tc.name, instrumented, instr, ops, err, tc.instr, tc.ops, tc.err)
			}
			if tc.err != "" {
				continue
			}
			_, singles, cerr := exec.FusedPairCensusForTest(tc.prog(), instrumented)
			var sum int64
			for _, n := range singles {
				sum += n
			}
			if cerr != nil || sum != tc.instr {
				t.Errorf("%s per-pc census (instrumented %v): %d executions (err %v), want %d",
					tc.name, instrumented, sum, cerr, tc.instr)
			}
		}
	}
}

// censusPrograms are the programs whose fusion census is pinned under
// testdata/census.
func censusPrograms() map[string]*ir.Program {
	tier, _ := corpus.TierByName("1k")
	src := tier.Generate()
	return map[string]*ir.Program{
		"mdg":    workloads.ByName("mdg").Fresh(),
		"flo88":  workloads.ByName("flo88").Fresh(),
		"tier1k": minif.MustParse(src.Name, src.Source),
	}
}

// TestFusionCensusGolden pins FusionCensus — every dynamic pattern and its
// count — on mdg, flo88 and the 1k corpus tier, byte for byte. The census
// reads the VM's per-pc execution counts, so any drift in how those are
// kept shows up here. -update rewrites the files.
func TestFusionCensusGolden(t *testing.T) {
	for name, prog := range censusPrograms() {
		pats, err := exec.FusionCensus(prog, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sb strings.Builder
		for _, p := range pats {
			fmt.Fprintf(&sb, "%s %d\n", p.Pattern, p.Count)
		}
		path := filepath.Join("testdata", "census", name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Errorf("%s: fusion census differs from %s", name, path)
		}
	}
}
