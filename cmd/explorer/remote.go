package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"

	"suifx/internal/explorer"
	"suifx/internal/httpretry"
	"suifx/internal/session"
)

// remote is a session hosted by a suifxd server (-connect): the program and
// its analysis state live server-side, so many explorers can share one warm
// analysis cache. Transient connection failures (a refused dial while the
// daemon restarts, a shed 429) are retried with jittered backoff up to 3
// attempts before surfacing.
type remote struct {
	hc      *httpretry.Client
	session string // the session's URL
}

// dial creates the session: by workload name when one is given, else from
// the program source.
func dial(base, name, src, workload string) (*remote, session.Info, error) {
	r := &remote{hc: &httpretry.Client{
		OnRetry: func(attempt int, err error) {
			fmt.Fprintf(os.Stderr, "explorer: attempt %d failed (%v); retrying\n", attempt, err)
		},
	}}
	req := map[string]any{"name": name, "source": src}
	if workload != "" {
		req = map[string]any{"workload": workload}
	}
	var created struct {
		Info session.Info `json:"info"`
	}
	base = strings.TrimRight(base, "/")
	err := r.call("POST", base+"/v1/session", req, &created)
	r.session = base + "/v1/session/" + created.Info.ID
	return r, created.Info, err
}

func (r *remote) Guru() (*session.GuruReport, error) {
	var g session.GuruReport
	return &g, r.call("GET", r.session+"/guru", nil, &g)
}

func (r *remote) Assert(kind, loop, v string) (*session.AssertOutcome, error) {
	var out session.AssertOutcome
	return &out, r.call("POST", r.session+"/assert", map[string]any{"kind": kind, "loop": loop, "var": v}, &out)
}

func (r *remote) Why(loop string) (*explorer.WhyReport, error) {
	var rep explorer.WhyReport
	return &rep, r.call("GET", r.session+"/why?loop="+url.QueryEscape(loop), nil, &rep)
}

func (r *remote) Slice(kind, proc, v string, line int) (*session.SliceReport, error) {
	var rep session.SliceReport
	return &rep, r.call("POST", r.session+"/slice", map[string]any{"kind": kind, "proc": proc, "var": v, "line": line}, &rep)
}

func (r *remote) Events() ([]session.Event, error) {
	var out struct {
		Events []session.Event `json:"events"`
	}
	return out.Events, r.call("GET", r.session+"/events", nil, &out)
}

func (r *remote) Close() error { return r.call("DELETE", r.session, nil, nil) }

// call is the JSON transport. A server error arrives in the uniform
// {"error": ...} envelope and surfaces as its message alone, which is the
// text the same failure has in a local session.
func (r *remote) call(method, u string, body, out any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, u, bytes.NewReader(b))
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
			return errors.New(env.Error)
		}
		return fmt.Errorf("%s %s: %s", method, u, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
