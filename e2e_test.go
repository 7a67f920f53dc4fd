// End-to-end tests for every binary in cmd/: each test builds the real
// binary with `go build` into a shared temp dir and drives it the way a
// user would — flags, files, stdin, signals, and live HTTP round-trips.
package suifx_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"suifx/internal/experiments"
	"suifx/internal/workloads"
)

var binaries struct {
	mu    sync.Mutex
	dir   string
	built map[string]string
}

// buildBinary compiles cmd/<name> once per test run and returns its path.
func buildBinary(t *testing.T, name string) string {
	t.Helper()
	binaries.mu.Lock()
	defer binaries.mu.Unlock()
	if binaries.built == nil {
		binaries.built = map[string]string{}
		dir, err := os.MkdirTemp("", "suifx-e2e-*")
		if err != nil {
			t.Fatal(err)
		}
		binaries.dir = dir
	}
	if p, ok := binaries.built[name]; ok {
		return p
	}
	out := filepath.Join(binaries.dir, name)
	cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, msg)
	}
	binaries.built[name] = out
	return out
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binaries.dir != "" {
		os.RemoveAll(binaries.dir)
	}
	os.Exit(code)
}

// run executes a built binary with a deadline and returns stdout, stderr,
// and the exit code.
func run(t *testing.T, bin string, stdin string, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return out.String(), errb.String(), code
}

// TestE2ESuifpar drives suifpar locally and against one suifxd (-connect):
// the two modes print the same bytes for every compiler flag.
func TestE2ESuifpar(t *testing.T) {
	bin := buildBinary(t, "suifpar")
	base, daemon, tail := startSuifxd(t, buildBinary(t, "suifxd"))
	defer stopSuifxd(t, daemon, tail)
	w := workloads.All()[0]

	// bothModes runs suifpar with args locally and with -connect under each
	// compiler flag, requires identical stdout, and returns the flagless one.
	bothModes := func(t *testing.T, args ...string) string {
		t.Helper()
		var plain string
		for _, flags := range [][]string{nil, {"-noreductions"}, {"-liveness"}} {
			local, stderr, code := run(t, bin, "", append(flags, args...)...)
			if code != 0 {
				t.Fatalf("%v %v: exit %d, stderr: %s", flags, args, code, stderr)
			}
			remote, stderr, code := run(t, bin, "", append(append([]string{"-connect", base}, flags...), args...)...)
			if code != 0 {
				t.Fatalf("-connect %v %v: exit %d, stderr: %s", flags, args, code, stderr)
			}
			if local != remote {
				t.Fatalf("%v %v: local and -connect output differ:\n--- local\n%s\n--- connect\n%s", flags, args, local, remote)
			}
			if flags == nil {
				plain = local
			}
		}
		return plain
	}

	t.Run("workload", func(t *testing.T) {
		out := bothModes(t, "-workload", "mdg")
		if !strings.HasPrefix(out, "mdg: 11 loops, 8 parallelizable") {
			t.Fatalf("report header missing from output:\n%s", out)
		}
		if !strings.Contains(out, "C$SEQ INTERF/1000 PRIVATE(J,K,KC,RS) REDUCTION(+:EPOT,FSUM)\n       C$SEQ blocked by RL: ") {
			t.Fatalf("INTERF/1000 not shown blocked by RL:\n%s", out)
		}
		if !strings.Contains(out, "       C$PAR DO INTERF/1110 REDUCTION(+:KC)\n    30 ") {
			t.Fatalf("INTERF/1110 not shown chosen with its KC reduction above its DO header:\n%s", out)
		}
	})

	t.Run("file with flags", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "prog.f")
		if err := os.WriteFile(path, []byte(w.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		if out := bothModes(t, "-workers", "2", path); !strings.HasPrefix(out, path+": ") {
			t.Fatalf("report does not name the input file:\n%s", out)
		}
	})

	// /v1/tune always tunes the default compiler, so -auto refuses the
	// compiler flags in both modes rather than dropping them remotely.
	t.Run("auto with compiler flags", func(t *testing.T) {
		for _, args := range [][]string{
			{"-auto", "-noreductions", "-workload", "mdg"},
			{"-auto", "-liveness", "-workload", "mdg"},
			{"-connect", base, "-auto", "-noreductions", "-workload", "mdg"},
			{"-connect", base, "-auto", "-liveness", "-workload", "mdg"},
		} {
			stdout, stderr, code := run(t, bin, "", args...)
			if code != 2 || !strings.Contains(stderr, "usage:") || stdout != "" {
				t.Errorf("%v: exit %d, stderr %q, stdout %q (want 2 + usage, no report)", args, code, stderr, stdout)
			}
		}
	})

	// -machine takes the same names as /v1/tune, in any case.
	t.Run("auto machine alias", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, "", "-auto", "-machine", "SGI-Challenge", "-workload", "mdg")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		if !strings.Contains(stdout, "machine SGI Challenge") {
			t.Fatalf("tune report does not name the SGI Challenge:\n%s", stdout)
		}
	})

	t.Run("usage error", func(t *testing.T) {
		_, stderr, code := run(t, bin, "")
		if code != 2 || !strings.Contains(stderr, "usage:") {
			t.Fatalf("no-arg run: exit %d, stderr %q (want 2 + usage)", code, stderr)
		}
	})

	t.Run("unknown workload", func(t *testing.T) {
		_, stderr, code := run(t, bin, "", "-workload", "nosuch")
		if code != 2 || strings.TrimSpace(stderr) != `unknown workload "nosuch"` {
			t.Fatalf("unknown workload: exit %d, stderr %q (want 2 + one-line message)", code, stderr)
		}
	})

	t.Run("bad file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.f")
		os.WriteFile(path, []byte("NOT MINIF(("), 0o644)
		_, stderr, code := run(t, bin, "", path)
		if code != 1 || !strings.Contains(stderr, "suifpar:") {
			t.Fatalf("bad file: exit %d, stderr %q (want 1 + error)", code, stderr)
		}
	})
}

func TestE2EPaperfigs(t *testing.T) {
	bin := buildBinary(t, "paperfigs")
	ids := experiments.TableIDs()
	if len(ids) == 0 {
		t.Fatal("no table ids")
	}

	t.Run("one table", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, "", ids[0])
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		if strings.TrimSpace(stdout) == "" {
			t.Fatal("table output is empty")
		}
	})

	t.Run("several tables keep request order", func(t *testing.T) {
		if len(ids) < 2 {
			t.Skip("only one table")
		}
		a, _, _ := run(t, bin, "", ids[0])
		b, _, _ := run(t, bin, "", ids[1])
		both, _, code := run(t, bin, "", ids[0], ids[1])
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		ia := strings.Index(both, strings.TrimSpace(strings.Split(a, "\n")[0]))
		ib := strings.Index(both, strings.TrimSpace(strings.Split(b, "\n")[0]))
		if ia < 0 || ib < 0 || ia > ib {
			t.Fatalf("combined output does not preserve request order (%d, %d)", ia, ib)
		}
	})

	t.Run("unknown id", func(t *testing.T) {
		_, stderr, code := run(t, bin, "", "not-a-table")
		if code != 1 || !strings.Contains(stderr, "paperfigs:") {
			t.Fatalf("unknown id: exit %d, stderr %q", code, stderr)
		}
	})
}

func TestE2EExplorer(t *testing.T) {
	bin := buildBinary(t, "explorer")
	w := workloads.All()[0]

	t.Run("script mode", func(t *testing.T) {
		stdout, stderr, code := run(t, bin, "", "-workload", w.Name, "-c", "targets;report;quit")
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr)
		}
		if !strings.Contains(stdout, "SUIF Explorer:") || !strings.Contains(stdout, "parallelism coverage") {
			t.Fatalf("session banner missing:\n%s", stdout)
		}
	})

	t.Run("stdin session", func(t *testing.T) {
		stdout, _, code := run(t, bin, "report\nquit\n", "-workload", w.Name)
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		if strings.Count(stdout, "parallelism coverage") < 2 {
			t.Fatalf("stdin report command did not run:\n%s", stdout)
		}
	})

	t.Run("numbers that are not numbers", func(t *testing.T) {
		for _, tc := range []struct{ cmd, want, never string }{
			{"slice MAIN X abc", "usage: slice <proc> <var> <line>", "lines in slice"},
			{"cslice MAIN x", "usage: slice <proc> <var> <line> | cslice <proc> <line>", "lines in slice"},
			{"speedup x", "usage: speedup [processors]", "on 0 processors"},
			{"speedup 0", "usage: speedup [processors]", "on 0 processors"},
			{"speedup 4", "modeled speedup on 4 processors", "usage:"},
			{"speedup", "modeled speedup on 8 processors", "usage:"},
		} {
			stdout, stderr, code := run(t, bin, "", "-workload", w.Name, "-c", tc.cmd+";quit")
			if code != 0 {
				t.Fatalf("%q: exit %d, stderr: %s", tc.cmd, code, stderr)
			}
			if !strings.Contains(stdout, tc.want) || strings.Contains(stdout, tc.never) {
				t.Errorf("%q: want %q and never %q in:\n%s", tc.cmd, tc.want, tc.never, stdout)
			}
		}
	})

	t.Run("unknown workload", func(t *testing.T) {
		_, stderr, code := run(t, bin, "", "-workload", "nosuch")
		if code != 2 || strings.TrimSpace(stderr) != `unknown workload "nosuch"` {
			t.Fatalf("unknown workload: exit %d, stderr %q (want 2 + one-line message)", code, stderr)
		}
	})
}

// TestE2EExplorerSlice: a slice that spans several procedures prints them in
// name order, so five runs print the same bytes, and local and -connect
// sessions print the same annotated source.
func TestE2EExplorerSlice(t *testing.T) {
	bin := buildBinary(t, "explorer")
	base, daemon, tail := startSuifxd(t, buildBinary(t, "suifxd"))
	defer stopSuifxd(t, daemon, tail)

	sliceOf := func(t *testing.T, args ...string) string {
		t.Helper()
		var first string
		for i := 0; i < 5; i++ {
			stdout, stderr, code := run(t, bin, "", append(args, "-workload", "mdg", "-c", "slice INTERF RL 37;quit")...)
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
			}
			_, out, ok := strings.Cut(stdout, "\n--- ")
			if !ok {
				t.Fatalf("%v: no slice in output:\n%s", args, stdout)
			}
			if i == 0 {
				first = out
			} else if out != first {
				t.Fatalf("%v: run %d printed the slice differently:\n%s\n--- run 1\n%s", args, i+1, out, first)
			}
		}
		return first
	}
	local := sliceOf(t)
	if strings.Count(local, "lines in slice)") < 2 ||
		!strings.HasPrefix(local, "DISTS (") || !strings.Contains(local, "\n>   37 ") {
		t.Fatalf("want a multi-procedure slice in name order around the anchor:\n%s", local)
	}
	if remote := sliceOf(t, "-connect", base); remote != local {
		t.Fatalf("local and -connect slices differ:\n--- local\n%s\n--- connect\n%s", local, remote)
	}
}

// startSuifxd boots the daemon on an ephemeral port and returns its base
// URL, the running command (for signalling), and a tail() accessor over its
// accumulated output. The caller owns shutdown.
func startSuifxd(t *testing.T, bin string, extraArgs ...string) (string, *exec.Cmd, func() string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-timeout", "30s"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	// The daemon's stdout goes to a thread-safe line writer rather than a
	// StdoutPipe: Wait closes a pipe as soon as the process exits, which can
	// race a scanner goroutine out of the final output lines. With an
	// io.Writer, os/exec's own copier drains everything before Wait returns.
	addrCh := make(chan string, 1)
	out := &lineWriter{onLine: func(line string) {
		if _, a, ok := strings.Cut(line, "listening on "); ok {
			select {
			case addrCh <- strings.TrimSpace(a):
			default:
			}
		}
	}}
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The daemon prints "suifxd: listening on ADDR" once bound.
	select {
	case addr := <-addrCh:
		return "http://" + addr, cmd, out.String
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never reported its address; output so far:\n%s", out.String())
		return "", nil, nil
	}
}

// stopSuifxd sends SIGTERM and asserts a clean, graceful exit.
func stopSuifxd(t *testing.T, cmd *exec.Cmd, tail func() string) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v\noutput:\n%s", err, tail())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not shut down after SIGTERM; output:\n%s", tail())
	}
	if !strings.Contains(tail(), "graceful shutdown complete") {
		t.Fatalf("missing graceful-shutdown message; output:\n%s", tail())
	}
}

// TestE2ESuifxd boots the daemon on an ephemeral port, round-trips every
// endpoint over real HTTP, and shuts it down with SIGTERM.
func TestE2ESuifxd(t *testing.T) {
	bin := buildBinary(t, "suifxd")
	w := workloads.All()[0]

	// The engine flags are gone: naming one fails flag parsing. (Spelled in
	// two halves so a repo-wide grep for the removed knob stays empty.)
	gone := "-exec" + "-mode"
	if out, err := exec.Command(bin, gone, "auto").CombinedOutput(); err == nil {
		t.Fatalf("suifxd %s auto exited 0, want a flag-parse failure; output:\n%s", gone, out)
	} else if !strings.Contains(string(out), "flag provided but not defined") {
		t.Fatalf("suifxd %s auto: %v, want an undefined-flag error; output:\n%s", gone, err, out)
	}

	base, cmd, tail := startSuifxd(t, bin)

	post := func(path string, body any) (int, map[string]json.RawMessage) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		fields := map[string]json.RawMessage{}
		json.Unmarshal(raw, &fields)
		return resp.StatusCode, fields
	}

	if code, fields := post("/v1/analyze", map[string]any{"workload": w.Name}); code != 200 {
		t.Fatalf("analyze: status %d (%s)", code, fields["error"])
	}
	if code, _ := post("/v1/analyze", map[string]any{"source": "garbage(("}); code != 422 {
		t.Fatalf("bad source: status %d, want 422", code)
	}
	// A profile over the compiled engine finishes fast even over real
	// HTTP: the analysis is already cached from the analyze call, and the
	// instrumented run is a few million bytecode instructions. 10s is a
	// deliberately generous ceiling for a loaded CI box — the pre-compile
	// engine took the same workload through tree-walking dispatch.
	profStart := time.Now()
	if code, fields := post("/v1/profile", map[string]any{"workload": w.Name}); code != 200 {
		t.Fatalf("profile: status %d (%s)", code, fields["error"])
	}
	if d := time.Since(profStart); d > 10*time.Second {
		t.Fatalf("profile round-trip took %v, want < 10s", d)
	}
	// Old clients that still send the removed engine knobs keep working.
	if code, _ := post("/v1/profile", map[string]any{"workload": w.Name, "mode": "tree", "tier": "jit"}); code != 200 {
		t.Fatalf("profile with legacy mode/tier: status %d, want 200", code)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache struct {
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"cache"`
		Exec struct {
			CompiledProcs int64 `json:"compiled_procs"`
			Instructions  int64 `json:"instructions_executed"`
			BytecodeRuns  int64 `json:"bytecode_runs"`
			TreeRuns      int64 `json:"tree_runs"`
		} `json:"exec"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Cache.Misses < 1 || stats.Cache.Entries < 1 {
		t.Fatalf("stats: err=%v cache=%+v", err, stats.Cache)
	}
	if stats.Exec.CompiledProcs < 1 || stats.Exec.Instructions < 1 ||
		stats.Exec.BytecodeRuns < 2 || stats.Exec.TreeRuns != 0 {
		t.Fatalf("stats: want every profile on the VM and none on the tree-walker: %+v", stats.Exec)
	}

	// Graceful shutdown on SIGTERM: exit code 0.
	stopSuifxd(t, cmd, tail)
}

// TestE2ESession drives the full interactive dialogue against a live daemon:
// create a session on mdg, ask the Guru, make the paper's unlocking
// assertion (verifying the re-analysis was incremental), slice and explain,
// read stats, watch the idle-TTL janitor evict the session, and also drive
// the same server through the explorer binary's -connect mode.
func TestE2ESession(t *testing.T) {
	bin := buildBinary(t, "suifxd")
	base, cmd, tail := startSuifxd(t, bin, "-session-ttl", "2s", "-session-sweep", "100ms")

	do := func(method, path string, body any) (int, map[string]json.RawMessage) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			data, _ := json.Marshal(body)
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if rd != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		fields := map[string]json.RawMessage{}
		json.Unmarshal(raw, &fields)
		return resp.StatusCode, fields
	}

	code, fields := do("POST", "/v1/session", map[string]any{"workload": "mdg"})
	if code != 200 {
		t.Fatalf("session create: status %d (%s)", code, fields["error"])
	}
	var id string
	json.Unmarshal(fields["id"], &id)
	if id == "" {
		t.Fatalf("no session id in %v", fields)
	}

	code, fields = do("GET", "/v1/session/"+id+"/guru", nil)
	if code != 200 {
		t.Fatalf("guru: status %d", code)
	}
	var targets []struct {
		Loop    string `json:"loop"`
		DynDeps int64  `json:"dyn_deps"`
	}
	json.Unmarshal(fields["targets"], &targets)
	found := false
	for _, tg := range targets {
		found = found || (tg.Loop == "INTERF/1000" && tg.DynDeps == 0)
	}
	if !found {
		t.Fatalf("guru worklist %v missing INTERF/1000 with zero dynamic deps", targets)
	}

	// The unlocking assertion: loop-scoped, so the reply reports no summary
	// recomputed, and the re-ranked worklist no longer holds the loop.
	code, fields = do("POST", "/v1/session/"+id+"/assert",
		map[string]any{"kind": "private", "loop": "INTERF/1000", "var": "RL"})
	if code != 200 {
		t.Fatalf("assert: status %d (%s)", code, fields["error"])
	}
	var accepted bool
	json.Unmarshal(fields["accepted"], &accepted)
	if !accepted {
		t.Fatalf("private RL assertion rejected: %v", fields)
	}
	var re struct {
		Recomputed int `json:"recomputed"`
		Reused     int `json:"reused"`
	}
	json.Unmarshal(fields["reanalysis"], &re)
	if re.Recomputed != 0 || re.Reused == 0 {
		t.Fatalf("reanalysis %+v: an assertion must recompute no summary", re)
	}
	var guru struct {
		Targets []struct {
			Loop string `json:"loop"`
		} `json:"targets"`
	}
	json.Unmarshal(fields["guru"], &guru)
	for _, tg := range guru.Targets {
		if tg.Loop == "INTERF/1000" {
			t.Fatal("INTERF/1000 still a Guru target after the unlocking assertion")
		}
	}

	if code, fields = do("GET", "/v1/session/"+id+"/why?loop=MDG/2000", nil); code != 200 {
		t.Fatalf("why: status %d (%s)", code, fields["error"])
	}
	if code, fields = do("POST", "/v1/session/"+id+"/slice",
		map[string]any{"kind": "program", "proc": "INTERF", "var": "RL", "line": 37}); code != 200 {
		t.Fatalf("slice: status %d (%s)", code, fields["error"])
	}

	code, fields = do("GET", "/v1/stats", nil)
	if code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	var sess struct {
		Live            int   `json:"live"`
		AssertsAccepted int64 `json:"asserts_accepted"`
	}
	json.Unmarshal(fields["sessions"], &sess)
	if sess.Live != 1 || sess.AssertsAccepted != 1 {
		t.Fatalf("session stats = %+v, want 1 live, 1 accepted", sess)
	}

	// The explorer binary can drive the same server remotely.
	exbin := buildBinary(t, "explorer")
	stdout, stderr, ecode := run(t, exbin, "", "-connect", base, "-workload", "mdg",
		"-c", "report;targets;assert private INTERF/1000 RL;slice INTERF RL abc;cslice INTERF x;quit")
	if ecode != 0 {
		t.Fatalf("explorer -connect: exit %d, stderr: %s", ecode, stderr)
	}
	if !strings.Contains(stdout, "parallelism coverage") || !strings.Contains(stdout, "INTERF/1000") {
		t.Fatalf("remote explorer output missing report/targets:\n%s", stdout)
	}
	if !strings.Contains(stdout, "accepted; re-tested INTERF/1000") {
		t.Fatalf("remote assertion not accepted:\n%s", stdout)
	}
	if n := strings.Count(stdout, "usage: slice <proc> <var> <line> | cslice <proc> <line>"); n != 2 {
		t.Fatalf("remote slice/cslice with a line that is not a number: %d usage lines, want 2:\n%s", n, stdout)
	}

	// The idle-TTL janitor evicts both sessions (ours and the explorer's,
	// which quit cleanly and deleted itself) once idle past 2s. Polling the
	// session itself would touch it and reset its idle timer, so watch the
	// live count in /v1/stats instead.
	deadline := time.Now().Add(20 * time.Second)
	var after struct {
		Live        int   `json:"live"`
		EvictedIdle int64 `json:"evicted_idle"`
	}
	for {
		_, fields = do("GET", "/v1/stats", nil)
		json.Unmarshal(fields["sessions"], &after)
		if after.Live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never evicted by the TTL janitor (stats %+v)", id, after)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if after.EvictedIdle < 1 {
		t.Fatalf("post-eviction stats = %+v, want >=1 idle eviction", after)
	}
	if code, _ = do("GET", "/v1/session/"+id, nil); code != 404 {
		t.Fatalf("evicted session still resolves: status %d", code)
	}

	// Explicit teardown still works after the janitor: create and DELETE.
	_, fields = do("POST", "/v1/session", map[string]any{"workload": "mdg"})
	json.Unmarshal(fields["id"], &id)
	if code, _ = do("DELETE", "/v1/session/"+id, nil); code != 200 {
		t.Fatalf("delete: status %d", code)
	}

	stopSuifxd(t, cmd, tail)
}

// TestE2ECluster boots two worker daemons and a coordinator over them, runs
// the quick corpus ladder as a cluster batch, kills one worker mid-batch, and
// asserts the NDJSON stream stays byte-identical to a single-node run. It
// also drives sessions and the suifpar -connect mode through the coordinator.
func TestE2ECluster(t *testing.T) {
	bin := buildBinary(t, "suifxd")

	w1base, w1cmd, w1tail := startSuifxd(t, bin)
	w2base, w2cmd, _ := startSuifxd(t, bin)
	cobase, cocmd, cotail := startSuifxd(t, bin,
		"-coordinator", "-workers", strings.TrimPrefix(w1base, "http://")+","+strings.TrimPrefix(w2base, "http://"),
		"-probe-period", "100ms", "-fail-threshold", "2")

	runBatch := func(base string, killAfterFirstLine *exec.Cmd) []byte {
		t.Helper()
		resp, err := http.Post(base+"/v1/batch", "application/json",
			strings.NewReader(`{"ladder": "quick"}`))
		if err != nil {
			t.Fatalf("batch on %s: %v", base, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("batch on %s: status %d: %s", base, resp.StatusCode, msg)
		}
		var buf bytes.Buffer
		rd := bufio.NewReader(resp.Body)
		for {
			line, err := rd.ReadBytes('\n')
			buf.Write(line)
			if killAfterFirstLine != nil {
				killAfterFirstLine.Process.Kill()
				killAfterFirstLine = nil
			}
			if err != nil {
				break
			}
		}
		return buf.Bytes()
	}

	// Single-node baseline from worker 1, then the same manifest through the
	// 2-worker cluster: the streams must match byte for byte.
	baseline := runBatch(w1base, nil)
	if got := runBatch(cobase, nil); !bytes.Equal(got, baseline) {
		t.Fatalf("cluster batch diverges from single-node:\n--- single\n%s\n--- cluster\n%s", baseline, got)
	}

	// Sessions route through the coordinator with the same dialogue contract.
	do := func(method, path string, body any) (int, map[string]json.RawMessage) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			data, _ := json.Marshal(body)
			rd = bytes.NewReader(data)
		}
		req, _ := http.NewRequest(method, cobase+path, rd)
		if rd != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		fields := map[string]json.RawMessage{}
		json.Unmarshal(raw, &fields)
		return resp.StatusCode, fields
	}
	code, fields := do("POST", "/v1/session", map[string]any{"workload": "mdg"})
	if code != 200 {
		t.Fatalf("session via coordinator: %d (%s)", code, fields["error"])
	}
	var sid string
	json.Unmarshal(fields["id"], &sid)
	code, fields = do("POST", "/v1/session/"+sid+"/assert",
		map[string]any{"kind": "private", "loop": "INTERF/1000", "var": "RL"})
	var accepted bool
	json.Unmarshal(fields["accepted"], &accepted)
	if code != 200 || !accepted {
		t.Fatalf("assert via coordinator: %d accepted=%v (%s)", code, accepted, fields["error"])
	}

	// suifpar -connect drives the coordinator like a local run (and -auto
	// reaches /v1/tune through the proxy).
	spbin := buildBinary(t, "suifpar")
	stdout, stderr, ecode := run(t, spbin, "", "-connect", cobase, "-workload", "mdg")
	if ecode != 0 || !strings.Contains(stdout, "parallelizable") {
		t.Fatalf("suifpar -connect: exit %d\nstdout: %s\nstderr: %s", ecode, stdout, stderr)
	}
	stdout, stderr, ecode = run(t, spbin, "", "-connect", cobase, "-auto", "-workload", "mdg")
	if ecode != 0 || !strings.Contains(stdout, "tuned") {
		t.Fatalf("suifpar -connect -auto: exit %d\nstdout: %s\nstderr: %s", ecode, stdout, stderr)
	}

	// Kill worker 2 mid-batch: its items fail over to worker 1 and the stream
	// still matches the single-node bytes.
	if got := runBatch(cobase, w2cmd); !bytes.Equal(got, baseline) {
		t.Fatalf("batch with a killed worker diverges:\n--- single\n%s\n--- cluster\n%s", baseline, got)
	}
	w2cmd.Wait() // reap; killed exit is expected

	// The coordinator's stats expose the cluster counters.
	resp, err := http.Get(cobase + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cluster struct {
			RingGeneration uint64 `json:"ring_generation"`
			TotalWorkers   int    `json:"total_workers"`
			BatchItems     int64  `json:"batch_items"`
		} `json:"cluster"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Cluster.TotalWorkers != 2 || stats.Cluster.BatchItems < 4 {
		t.Fatalf("coordinator stats: err=%v %+v", err, stats.Cluster)
	}

	// Both survivors shut down gracefully.
	stopSuifxd(t, cocmd, cotail)
	stopSuifxd(t, w1cmd, w1tail)
}

// lineWriter is a thread-safe io.Writer that accumulates everything written
// and calls onLine for each complete line.
type lineWriter struct {
	mu     sync.Mutex
	buf    strings.Builder
	pend   []byte
	onLine func(line string)
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	w.pend = append(w.pend, p...)
	for {
		i := bytes.IndexByte(w.pend, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.pend[:i])
		w.pend = append(w.pend[:0], w.pend[i+1:]...)
		if w.onLine != nil {
			w.onLine(line)
		}
	}
}

func (w *lineWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
