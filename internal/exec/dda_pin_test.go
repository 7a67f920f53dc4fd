package exec_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/minif"
	"suifx/internal/workloads"
)

// nest8Src nests eight DO loops through a chain of calls, deeper than any
// static nest in the workloads. The innermost body reads and writes common
// cells whose last writes lie one, two, ... seven levels out, so every
// level of the nest carries a dependence somewhere.
const nest8Src = `
      PROGRAM nest8
      COMMON /d/ a(3), s
      REAL a, s
      INTEGER i1
      DO 10 i1 = 1, 2
        CALL s1(i1)
10    CONTINUE
      WRITE(*,*) s
      END

      SUBROUTINE s1(k)
      INTEGER k, i2
      DO 20 i2 = 1, 2
        CALL s2(k + i2)
20    CONTINUE
      END

      SUBROUTINE s2(k)
      INTEGER k, i3
      DO 30 i3 = 1, 2
        CALL s3(k + i3)
30    CONTINUE
      END

      SUBROUTINE s3(k)
      INTEGER k, i4
      DO 40 i4 = 1, 2
        CALL s4(k + i4)
40    CONTINUE
      END

      SUBROUTINE s4(k)
      INTEGER k, i5
      DO 50 i5 = 1, 2
        CALL s5(k + i5)
50    CONTINUE
      END

      SUBROUTINE s5(k)
      INTEGER k, i6
      DO 60 i6 = 1, 2
        CALL s6(k + i6)
60    CONTINUE
      END

      SUBROUTINE s6(k)
      INTEGER k, i7
      DO 70 i7 = 1, 2
        CALL s7(k + i7)
70    CONTINUE
      END

      SUBROUTINE s7(k)
      COMMON /d/ a(3), s
      REAL a, s
      INTEGER k, i8
      DO 80 i8 = 1, 3
        s = s + a(i8) * k
        a(i8) = a(i8) + 1.0
80    CONTINUE
      END
`

// ddaPins renders everything the Dynamic Dependence Analyzer answers about
// one run: instrumented accesses, the loops with dependences, and per loop
// its carried total and the cells those dependences fell on (what
// CarriedInRange sums). Runs of consecutive cells with one count print as
// "lo..hi count".
func ddaPins(prog *ir.Program, d *exec.DynDep) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accesses %d\n", d.Accesses())
	fmt.Fprintf(&sb, "loops_with_deps %s\n", strings.Join(d.LoopsWithDeps(prog), ","))
	for _, p := range prog.Procs {
		for _, l := range p.Loops() {
			c := d.Carried(l)
			if c == 0 {
				continue
			}
			fmt.Fprintf(&sb, "loop %s carried %d\n", l.ID(p.Name), c)
			cells := d.CarriedCellsForTest(l)
			for i := 0; i < len(cells); {
				j := i
				for j+1 < len(cells) && cells[j+1].Cell == cells[j].Cell+1 && cells[j+1].Count == cells[i].Count {
					j++
				}
				if j == i {
					fmt.Fprintf(&sb, "  %d %d\n", cells[i].Cell, cells[i].Count)
				} else {
					fmt.Fprintf(&sb, "  %d..%d %d\n", cells[i].Cell, cells[j].Cell, cells[i].Count)
				}
				i = j + 1
			}
		}
	}
	return sb.String()
}

// ddaRun runs prog on the given engine under full or sampled DDA and
// renders its pins.
func ddaRun(t *testing.T, prog *ir.Program, mode exec.ExecMode, every, warm int64) string {
	t.Helper()
	in := exec.New(prog)
	in.Mode = mode
	in.Out = io.Discard
	d := exec.NewDynDep(in)
	d.SampleEvery, d.SampleWarm = every, warm
	if err := in.Run(); err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return ddaPins(prog, d)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "dda", name+".txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: DDA answers differ from %s", name, path)
	}
}

// TestDDAPinned pins the DDA's answers on the VM byte for byte: every
// workload under full DDA, the five exec-run programs sampled at
// SampleEvery=3, SampleWarm=1, and the eight-deep nest on both engines.
// The goldens were recorded while each cell's shadow still held the whole
// (loop, iteration) vector of its last write. -update rewrites them.
func TestDDAPinned(t *testing.T) {
	for _, w := range workloads.All() {
		checkGolden(t, w.Name, ddaRun(t, w.Fresh(), exec.ModeAuto, 0, 0))
	}
	for _, name := range []string{"mdg", "hydro", "applu", "arc3d", "flo88"} {
		checkGolden(t, name+".sampled", ddaRun(t, workloads.ByName(name).Fresh(), exec.ModeAuto, 3, 1))
	}
	prog := minif.MustParse("nest8", nest8Src)
	got := ddaRun(t, prog, exec.ModeAuto, 0, 0)
	if tree := ddaRun(t, prog, exec.ModeTree, 0, 0); tree != got {
		t.Errorf("nest8: tree and VM disagree:\n tree:\n%s vm:\n%s", tree, got)
	}
	checkGolden(t, "nest8", got)
}
