package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suifx/internal/issa"
	"suifx/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/dialogue/*.txt")

// dialogueApps are the Chapter-4 applications whose dialogues are pinned.
var dialogueApps = []string{"mdg", "hydro", "arc3d", "flo88"}

// dialogueScript is one application's Guru dialogue: report, targets, why
// of the first scripted loop, a slice on the first use of the first scripted
// variable in that loop's procedure, every private assertion of the
// workload's user script in its replay order (loops, then variables,
// sorted), one assertion the checker rejects, targets again and the event
// log.
func dialogueScript(t *testing.T, w *workloads.Workload) string {
	t.Helper()
	var asserts []string
	for _, a := range w.Script() {
		if !a.Independent {
			asserts = append(asserts, "assert private "+a.Loop+" "+a.Var)
		}
	}
	if len(asserts) == 0 {
		t.Fatalf("%s: no scripted private assertion", w.Name)
	}
	first := w.Script()[0]
	proc, _, _ := strings.Cut(first.Loop, "/")
	g := issa.Build(w.Fresh())
	line := 1
	for ; line <= strings.Count(w.Source, "\n")+1; line++ {
		if len(g.FindUse(proc, first.Var, line)) > 0 {
			break
		}
	}
	script := []string{"report", "targets", "why " + first.Loop, fmt.Sprintf("slice %s %s %d", proc, first.Var, line)}
	script = append(script, asserts...)
	script = append(script, "assert private "+first.Loop+" NOSUCH", "targets", "events")
	return strings.Join(script, ";")
}

// TestDialogueGolden pins each application's dialogue, run through the
// interpreter over a local session, as a transcript under testdata/dialogue.
// The e2e suite replays the transcripts' commands through the explorer
// binary, locally and with -connect, and requires these bytes after the
// banner from both.
func TestDialogueGolden(t *testing.T) {
	for _, app := range dialogueApps {
		t.Run(app, func(t *testing.T) {
			w := workloads.ByName(app)
			d, _, err := openLocal(w.Name, w.Source)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			(&console{w: &out, d: d, name: w.Name, src: w.Source}).run(dialogueScript(t, w), nil)
			for _, want := range []string{"accepted; re-tested ", "rejected (unknown-variable)", "lines in slice)", "blocked by "} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("transcript lacks %q", want)
				}
			}
			path := filepath.Join("testdata", "dialogue", app+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), golden) {
				t.Fatalf("%s transcript differs from %s:\n%s", app, path, out.String())
			}
		})
	}
}
