package viz

import (
	"strings"
	"testing"

	"suifx/internal/minif"
	"suifx/internal/parallel"
)

const src = `
      SUBROUTINE leaf
      INTEGER i
      REAL w(10)
      DO 5 i = 1, 10
        w(i) = i * 1.0
5     CONTINUE
      END
      PROGRAM main
      REAL a(50)
      INTEGER i
      DO 10 i = 2, 50
        a(i) = a(i-1) + 1.0
10    CONTINUE
      DO 20 i = 1, 50
        a(i) = a(i) * 2.0
20    CONTINUE
      CALL leaf
      END
`

func setup(t *testing.T) (*parallel.Result, *Codeview) {
	t.Helper()
	prog := minif.MustParse("v", src)
	res := parallel.Parallelize(prog, parallel.Config{UseReductions: true})
	return res, &Codeview{Prog: prog, Par: res}
}

func TestCodeviewClasses(t *testing.T) {
	res, cv := setup(t)
	out := cv.Render()
	lines := strings.Split(out, "\n")
	glyphAt := func(srcLine int) byte {
		for _, l := range lines {
			trimmed := strings.TrimLeft(l, " ")
			if strings.HasPrefix(trimmed, itoa(srcLine)+" ") {
				rest := strings.TrimSpace(strings.TrimPrefix(trimmed, itoa(srcLine)))
				if len(rest) > 0 {
					return rest[0]
				}
			}
		}
		return 0
	}
	// The recurrence (MAIN/10, lines 12..14) renders sequential '#'.
	if g := glyphAt(13); g != '#' {
		t.Fatalf("line 13 glyph = %q, want '#'", string(g))
	}
	// The parallel loop (MAIN/20) renders 'o'.
	if g := glyphAt(16); g != 'o' {
		t.Fatalf("line 16 glyph = %q, want 'o'", string(g))
	}
	_ = res
}

func TestCodeviewFocusAndFilter(t *testing.T) {
	res, cv := setup(t)
	cv.FocusLoop = "MAIN/10"
	out := cv.Render()
	if !strings.Contains(out, ">") {
		t.Fatal("focus bar missing")
	}
	cv2 := &Codeview{Prog: res.Prog, Par: res,
		Filter: func(li *parallel.LoopInfo) bool { return true }}
	out2 := cv2.Render()
	if !strings.Contains(out2, ":") {
		t.Fatal("filtered glyph missing")
	}
	if strings.Contains(out2, "o") || strings.Contains(out2, "#") {
		t.Fatal("all loops filtered: no loop glyphs expected")
	}
}

func TestCallGraphFocus(t *testing.T) {
	res, _ := setup(t)
	cg := &CallGraph{Prog: res.Prog, Focus: "LEAF",
		Weight: func(p string) string { return "(w)" }}
	out := cg.Render()
	if !strings.Contains(out, "* LEAF (w)") {
		t.Fatalf("focus/weight rendering:\n%s", out)
	}
	if !strings.Contains(out, "MAIN") {
		t.Fatal("root missing")
	}
}

func TestSourceViewRange(t *testing.T) {
	res, _ := setup(t)
	sv := &SourceView{Source: res.Prog.Source, From: 12, To: 14,
		Highlight: map[int]bool{13: true}, Anchor: 12,
		Verdicts: []parallel.LoopVerdict{
			{ID: "MAIN/10", Lines: [2]int{12, 14}, Vars: []parallel.VarVerdict{{Name: "A", Class: "dependence", Reason: "r"}}},
			{ID: "MAIN/20", Lines: [2]int{15, 17}, Chosen: true, Parallelizable: true},
		}}
	out := sv.Render()
	if !strings.Contains(out, ">   12") || !strings.Contains(out, "*   13") {
		t.Fatalf("markers:\n%s", out)
	}
	want := "       C$SEQ MAIN/10\n       C$SEQ blocked by A: r\n>   12 "
	if !strings.Contains(out, want) {
		t.Fatalf("directives do not precede the DO header:\n%s", out)
	}
	if strings.Contains(out, "   15 ") || strings.Contains(out, "MAIN/20") {
		t.Fatal("out-of-range line rendered")
	}
}

func TestDirectives(t *testing.T) {
	lv := parallel.LoopVerdict{ID: "P/10", Parallelizable: true, UnderParallel: true, Vars: []parallel.VarVerdict{
		{Name: "S", Class: "reduction", Reduction: "+"},
		{Name: "B", Class: "private", ByAssertion: true},
		{Name: "M", Class: "reduction", Reduction: "MAX"},
		{Name: "A", Class: "private"},
		{Name: "C", Class: "parallel"},
		{Name: "K", Class: "reduction", Reduction: "+"},
	}}
	got := strings.Join(Directives(lv), "\n")
	want := "C$PAR P/10 nested PRIVATE(A,B) SHARED(C) REDUCTION(+:K,S) REDUCTION(MAX:M) [user: B]"
	if got != want {
		t.Fatalf("Directives:\n got %q\nwant %q", got, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
