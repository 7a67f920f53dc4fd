package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"

	"suifx/internal/httpretry"
	"suifx/internal/session"
)

// remote drives an interactive session hosted by a suifxd server (-connect):
// the same Guru dialogue, but the program and its analysis state live
// server-side, so many explorers can share one warm analysis cache. Transient
// connection failures (a refused dial while the daemon restarts, a shed 429)
// are retried with jittered backoff up to 3 attempts before surfacing.
type remote struct {
	base string
	id   string
	hc   *httpretry.Client
	src  []string // the program's lines, for rendering slices
}

func runRemote(base, name, src, workload, script string) {
	r := &remote{base: strings.TrimRight(base, "/"), src: strings.Split(src, "\n"), hc: &httpretry.Client{
		OnRetry: func(attempt int, err error) {
			fmt.Fprintf(os.Stderr, "explorer: attempt %d failed (%v); retrying\n", attempt, err)
		},
	}}
	req := map[string]any{}
	if workload != "" {
		req["workload"] = workload
	} else {
		req["name"], req["source"] = name, src
	}
	var created struct {
		ID   string              `json:"id"`
		Info session.Info        `json:"info"`
		Guru *session.GuruReport `json:"guru"`
	}
	if err := r.call("POST", "/v1/session", req, &created); err != nil {
		fatal(err)
	}
	r.id = created.ID
	fmt.Printf("SUIF Explorer (remote %s): session %s on %s (%d loops)\n",
		r.base, r.id, created.Info.Program, created.Info.Loops)
	r.report(created.Guru)

	run := func(line string) bool { return r.command(strings.Fields(line)) }
	if script != "" {
		for _, c := range strings.Split(script, ";") {
			if !run(strings.TrimSpace(c)) {
				return
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		if !run(sc.Text()) {
			return
		}
		fmt.Print("> ")
	}
}

func (r *remote) report(g *session.GuruReport) {
	fmt.Printf("parallelism coverage: %.0f%%   granularity: %.3f ms\n", g.Coverage*100, g.GranularityMs)
}

func (r *remote) command(args []string) bool {
	if len(args) == 0 {
		return true
	}
	switch args[0] {
	case "quit", "exit":
		if err := r.call("DELETE", "/v1/session/"+r.id, nil, nil); err != nil {
			fmt.Println("warning:", err)
		}
		return false
	case "report", "targets":
		var g session.GuruReport
		if err := r.call("GET", "/v1/session/"+r.id+"/guru", nil, &g); err != nil {
			fmt.Println("error:", err)
			break
		}
		r.report(&g)
		if args[0] == "targets" {
			for i, t := range g.Targets {
				mark := " "
				if t.Important {
					mark = "*"
				}
				fmt.Printf("%s %2d. %-16s coverage %5.1f%%  granularity %7.3f ms  dyn-deps %d  static-deps %d\n",
					mark, i+1, t.Loop, t.CoveragePct, t.GranularityMs, t.DynDeps, t.StaticDeps)
				if len(t.Blocking) > 0 {
					fmt.Printf("       blocked by %s\n", strings.Join(t.Blocking, ", "))
				}
			}
		}
	case "assert":
		if len(args) != 4 {
			fmt.Println("usage: assert private|independent <loop> <var>")
			break
		}
		var out session.AssertOutcome
		req := map[string]any{
			"kind": args[1],
			"loop": strings.ToUpper(args[2]),
			"var":  strings.ToUpper(args[3]),
		}
		if err := r.call("POST", "/v1/session/"+r.id+"/assert", req, &out); err != nil {
			fmt.Println("error:", err)
			break
		}
		if !out.Accepted {
			fmt.Printf("rejected (%s): %s\n", out.Code, out.Reason)
			break
		}
		for _, w := range out.Warnings {
			fmt.Println("warning:", w)
		}
		fmt.Printf("accepted; re-tested %s\n", out.Loop)
		r.report(out.Guru)
	case "slice", "cslice":
		kind, proc, v, line, ok := sliceArgs(args)
		if !ok {
			fmt.Println("usage: slice <proc> <var> <line> | cslice <proc> <line>")
			break
		}
		req := map[string]any{"kind": kind, "proc": proc, "var": v, "line": line}
		var rep session.SliceReport
		if err := r.call("POST", "/v1/session/"+r.id+"/slice", req, &rep); err != nil {
			fmt.Println("error:", err)
			break
		}
		showSlice(r.src, rep.Procs, line)
	case "why":
		if len(args) != 2 {
			fmt.Println("usage: why <loop>")
			break
		}
		var rep struct {
			Verdict  string `json:"verdict"`
			Blocking []struct {
				Var     string `json:"var"`
				Reason  string `json:"reason"`
				Lines   []int  `json:"lines"`
				DynDeps int64  `json:"dyn_deps"`
			} `json:"blocking"`
		}
		path := "/v1/session/" + r.id + "/why?loop=" + url.QueryEscape(strings.ToUpper(args[1]))
		if err := r.call("GET", path, nil, &rep); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println(rep.Verdict)
		for _, b := range rep.Blocking {
			fmt.Printf("  %s: %s (lines %v, dynamic deps %d)\n", b.Var, b.Reason, b.Lines, b.DynDeps)
		}
	case "events":
		var out struct {
			Events []session.Event `json:"events"`
		}
		if err := r.call("GET", "/v1/session/"+r.id+"/events", nil, &out); err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, e := range out.Events {
			fmt.Printf("%3d %-16s %s\n", e.Seq, e.Kind, e.Detail)
		}
	default:
		fmt.Println("remote commands: targets report assert slice cslice why events quit")
	}
	return true
}

// call is the remote session's JSON transport; server errors arrive in the
// uniform {"error": ...} envelope and surface as plain Go errors.
func (r *remote) call(method, path string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, r.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// bytes.Reader bodies give the request a GetBody, so retries rewind.
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, env.Error)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
