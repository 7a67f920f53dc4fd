package driver

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/ir"
	"suifx/internal/workloads"
)

// TestSchedulePinned pins Schedule's JSON, the schedule /v1/analyze
// returns, on every workload and the quick ladder. -update rewrites the
// files under testdata/schedule.
func TestSchedulePinned(t *testing.T) {
	progs := map[string]*ir.Program{}
	for _, w := range workloads.All() {
		progs[w.Name] = w.Fresh()
	}
	for _, tier := range corpus.QuickLadder() {
		progs["tier"+tier.Name] = tierProgram(t, tier.Name)
	}
	for name, prog := range progs {
		got, err := json.Marshal(Schedule(prog))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "schedule", name+".json")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: schedule moved\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}
