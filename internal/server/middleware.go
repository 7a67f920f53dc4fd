package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// envelope converts non-JSON error responses — the mux's built-in text/plain
// 404 (unknown route) and 405 (method not allowed) — into the service's
// uniform JSON error envelope, so every error a client sees has the same
// {"error": ..., "status": ...} shape. Handler-written responses pass
// through untouched.
type envelope struct{ next http.Handler }

func (e envelope) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ew := &envelopeWriter{w: w}
	e.next.ServeHTTP(ew, r)
	ew.finish()
}

type envelopeWriter struct {
	w       http.ResponseWriter
	status  int
	msg     strings.Builder
	rewrite bool // suppressing a non-JSON error body, envelope pending
	wrote   bool // headers already forwarded
}

func (ew *envelopeWriter) Header() http.Header { return ew.w.Header() }

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.wrote || ew.rewrite {
		return
	}
	if status >= 400 && ew.w.Header().Get("Content-Type") != "application/json" {
		ew.status = status
		ew.rewrite = true
		// The buffered body replaces this response; its headers no longer fit.
		ew.w.Header().Del("Content-Length")
		ew.w.Header().Del("X-Content-Type-Options")
		return
	}
	ew.wrote = true
	ew.w.WriteHeader(status)
}

func (ew *envelopeWriter) Write(b []byte) (int, error) {
	if ew.rewrite {
		// Built-in error bodies are one short line; keep it as the message.
		if ew.msg.Len() < 1024 {
			ew.msg.Write(b)
		}
		return len(b), nil
	}
	ew.wrote = true
	return ew.w.Write(b)
}

func (ew *envelopeWriter) finish() {
	if !ew.rewrite {
		return
	}
	msg := strings.TrimSpace(ew.msg.String())
	if msg == "" {
		msg = http.StatusText(ew.status)
	}
	writeError(ew.w, ew.status, msg)
}

// apiHandler is an endpoint body: it returns a JSON-marshalable response or
// an error (ideally an *apiError carrying a status).
type apiHandler func(ctx context.Context, r *http.Request) (any, error)

// apiError is an error with an HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's non-standard code for "client went
// away"; the client never sees it, but it keeps the metrics honest.
const statusClientClosedRequest = 499

// streamHandler writes its own response body (the NDJSON batch stream). A
// returned error must precede the first body write; the middleware renders it
// in the usual JSON envelope.
type streamHandler func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// guard is the one middleware skeleton every endpoint runs under: panic
// recovery (500), in-flight/latency metrics and, for heavy endpoints, one
// concurrency-semaphore slot held for the whole response with 429 shedding,
// plus a deadline on the handler's context when timeout > 0 (504; the driver
// observes the cancellation).
func (s *Server) guard(name string, heavy bool, timeout time.Duration, h streamHandler) http.Handler {
	em := s.m.byName[name]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := http.StatusOK
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Add(1)
				status = http.StatusInternalServerError
				writeError(w, status, fmt.Sprintf("internal error: %v", rec))
			}
			em.observe(time.Since(start), status)
		}()

		if heavy {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.m.shed.Add(1)
				status = http.StatusTooManyRequests
				w.Header().Set("Retry-After", "1")
				writeError(w, status, "server at concurrency limit; retry")
				return
			}
		}
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)

		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}

		if err := h(ctx, w, r); err != nil {
			status = statusOf(err)
			writeError(w, status, err.Error())
		}
	})
}

// endpoint serves an apiHandler's response as JSON. heavy=false skips the
// semaphore and the per-request timeout (cheap read-only endpoints like
// /v1/stats).
func (s *Server) endpoint(name string, heavy bool, h apiHandler) http.Handler {
	var timeout time.Duration
	if heavy {
		timeout = s.cfg.RequestTimeout
	}
	return s.guard(name, heavy, timeout, func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		resp, err := h(ctx, r)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, resp)
		return nil
	})
}

// streamEndpoint serves a streaming handler under a semaphore slot. The
// per-request timeout deliberately does not apply — a long batch is bounded
// per item inside the handler, not whole-stream.
func (s *Server) streamEndpoint(name string, h streamHandler) http.Handler {
	return s.guard(name, true, 0, h)
}

func statusOf(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// decodeJSON reads a size-capped JSON request body. Oversized bodies map to
// 413, anything unparsable to 400.
func (s *Server) decodeJSON(r *http.Request, dst any) error {
	return DecodeJSON(r, s.cfg.MaxBodyBytes, dst)
}

// DecodeJSON reads a size-capped JSON request body: oversized bodies map to
// a 413 error, anything unparsable to 400 (statuses carried for StatusOf).
// Exported so the cluster coordinator shares the worker's decode contract.
func DecodeJSON(r *http.Request, limit int64, dst any) error {
	r.Body = http.MaxBytesReader(nil, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errf(http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
		}
		return errf(http.StatusBadRequest, "malformed JSON request: %v", err)
	}
	return nil
}

// The cluster coordinator serves the same wire contract as a worker without
// being one; these exports let it reuse the envelope discipline exactly.

// EnvelopeHandler wraps next so even routing-level errors (404/405 from the
// mux) come back in the JSON error envelope.
func EnvelopeHandler(next http.Handler) http.Handler { return envelope{next: next} }

// WriteJSON writes an indented JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the {"error", "status"} envelope.
func WriteError(w http.ResponseWriter, status int, msg string) { writeError(w, status, msg) }

// Errf builds an error carrying an HTTP status (recovered by StatusOf).
func Errf(status int, format string, args ...any) error { return errf(status, format, args...) }

// StatusOf maps an error to its HTTP status: Errf statuses pass through,
// context deadline → 504, context cancel → 499, anything else → 500.
func StatusOf(err error) int { return statusOf(err) }
