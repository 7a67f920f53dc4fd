package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"suifx/internal/httpretry"
	"suifx/internal/server"
)

// connectOpts parameterize a server-side suifpar run (-connect): the same
// report, but the analysis (and for -auto, the tuning search) happens on a
// running suifxd worker or cluster coordinator.
type connectOpts struct {
	base, name, src, workload string
	noRed, liveness           bool
	workers                   int
	auto                      bool
	budget, depth             int
	machine                   string
	asJSON                    bool
}

// runConnect drives /v1/analyze (or /v1/tune with -auto) over a retrying
// client: transient connection failures back off and retry up to 3 attempts
// before the final error names every attempt.
func runConnect(ctx context.Context, o connectOpts) error {
	base := strings.TrimRight(o.base, "/")
	rc := &httpretry.Client{
		OnRetry: func(attempt int, err error) {
			fmt.Fprintf(os.Stderr, "suifpar: attempt %d failed (%v); retrying\n", attempt, err)
		},
	}
	sr := server.SourceRef{}
	if o.workload != "" {
		sr.Workload = o.workload
	} else {
		sr.Name, sr.Source = o.name, o.src
	}

	if o.auto {
		var resp server.TuneResponse
		err := postJSON(ctx, rc, base+"/v1/tune", server.TuneRequest{
			SourceRef: sr,
			MaxRuns:   o.budget,
			MaxDepth:  o.depth,
			Machine:   o.machine,
		}, &resp)
		if err != nil {
			return err
		}
		return printTuneReport(resp.Name, resp.Report, o.asJSON)
	}

	var resp server.AnalyzeResponse
	err := postJSON(ctx, rc, base+"/v1/analyze", server.AnalyzeRequest{
		SourceRef:    sr,
		Workers:      o.workers,
		NoReductions: o.noRed,
		Liveness:     o.liveness,
	}, &resp)
	if err != nil {
		return err
	}
	printVerdicts(o.name, o.src, resp.Stats, resp.Loops)
	return nil
}

// postJSON posts a request and decodes the response, surfacing the server's
// JSON error envelope as a plain error.
func postJSON(ctx context.Context, rc *httpretry.Client, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := rc.PostJSON(ctx, url, b)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var env struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &env) == nil && env.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, env.Error)
		}
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
