// Slicing: the §3.1 portfolio story. The programmer privatized XPS without
// noticing the IF ... GO TO guard; the control slice of the write contains
// exactly the guard the program slice of the read misses.
package main

import (
	"fmt"

	"suifx/internal/issa"
	"suifx/internal/minif"
	"suifx/internal/slice"
	"suifx/internal/viz"
)

const portfolio = `
      PROGRAM folio
      REAL xps(50), y(51), xp(500)
      INTEGER s, h, jj, n, nls
      n = 9
      nls = 50
      DO 2365 s = 1, n
        IF (s .NE. 1 .AND. s .NE. 5) GO TO 2355
        DO 2350 h = 1, nls
          xps(h) = y(h+1)
2350    CONTINUE
2355    CONTINUE
        DO 2360 jj = 1, nls
          xp(s+(jj-1)*n) = xps(jj)
2360    CONTINUE
2365  CONTINUE
      END
`

func main() {
	prog, err := minif.Parse("folio", portfolio)
	if err != nil {
		panic(err)
	}
	g := issa.Build(prog)
	sl := slice.New(g, slice.Config{Kind: slice.Program})

	// Control slice of the write xps(h) = y(h+1): includes the guard.
	ctl := sl.ControlSliceOfLine("FOLIO", 10)
	hl := map[int]bool{}
	for _, m := range ctl.Lines() {
		for l := range m {
			hl[l] = true
		}
	}
	for st := range ctl.ExtraStmts {
		hl[st.Position().Line] = true
	}
	fmt.Println("control slice of the write to xps (line 10):")
	sv := &viz.SourceView{Source: prog.Source, Highlight: hl, Anchor: 10, From: 7, To: 15}
	fmt.Print(sv.Render())
	if hl[8] {
		fmt.Println("\nthe IF ... GO TO guard (line 8) is in the slice: the write is conditional,")
		fmt.Println("so XPS is NOT privatizable — the mistake the Explorer would have prevented.")
	}
}
