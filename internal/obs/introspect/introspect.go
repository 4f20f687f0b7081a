// Package introspect is the embeddable live-observability HTTP plane:
// a handler (and tiny server wrapper) that exposes a run's obs.Registry
// as Prometheus text exposition, its obs.JobsBoard as JSON job/
// sub-graph status, its obs.Tracer as drainable JSONL spans, and the
// standard net/http/pprof profiles — everything a long faultsim
// campaign or experiments run needs to be watched while it executes.
//
// The package depends only on internal/obs and the standard library;
// producers (engine, controller, chaos campaign) stay unaware of HTTP
// and push into the obs mirrors, which are safe to read concurrently
// with the simulation.
//
// Endpoints:
//
//	/metrics                 Prometheus text exposition of the registry
//	/healthz                 "ok" (200), or the Health callback's error (503)
//	/jobs                    JSON: all jobs, sub-graphs, suspicion, cost buckets
//	/jobs/{id}               JSON: one job (IDs may contain slashes)
//	/jobs/{id}/stragglers    JSON: per-stage duration stats + flagged stragglers
//	/trace                   span ring as JSONL; ?drain=1 empties the ring
//	/debug/pprof/            CPU/heap/goroutine profiles
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"clusterbft/internal/obs"
)

// Options wires the run's observability surfaces into the handler. Any
// field may be nil: the corresponding endpoint degrades gracefully
// (empty exposition, empty job list, 404 trace).
type Options struct {
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Board    *obs.JobsBoard

	// Health, when set, is consulted by /healthz; a non-nil error turns
	// the endpoint 503. Nil means "healthy whenever we can answer".
	Health func() error

	// Cost, when set, returns the run-level cost-attribution buckets
	// rendered into /jobs (typically mapred's CostBuckets). Declared as
	// any so this package needs no dependency on the engine.
	Cost func() any

	// SIDCost, when set, resolves one live sub-graph's buckets for
	// /jobs/{id} responses.
	SIDCost func(sid string) (any, bool)
}

// jobsResponse is the /jobs JSON document.
type jobsResponse struct {
	Jobs      []obs.JobStatus     `json:"jobs"`
	SIDs      []obs.SIDStatus     `json:"sids,omitempty"`
	Suspicion obs.SuspicionStatus `json:"suspicion"`
	Cost      any                 `json:"cost,omitempty"`
}

// jobResponse is the /jobs/{id} JSON document.
type jobResponse struct {
	obs.JobStatus
	SIDCost any `json:"sid_cost,omitempty"`
}

// Handler builds the introspection mux over o.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Registry.WriteExposition(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if o.Health != nil {
			if err := o.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		resp := jobsResponse{
			Jobs:      o.Board.Jobs(),
			SIDs:      o.Board.SIDs(),
			Suspicion: o.Board.Suspicion(),
		}
		if resp.Jobs == nil {
			resp.Jobs = []obs.JobStatus{}
		}
		if o.Cost != nil {
			resp.Cost = o.Cost()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/jobs/")
		if rest, ok := strings.CutSuffix(id, "/stragglers"); ok {
			rep, found := o.Board.Stragglers(rest)
			if !found {
				http.NotFound(w, r)
				return
			}
			writeJSON(w, rep)
			return
		}
		js, ok := o.Board.Job(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		resp := jobResponse{JobStatus: js}
		if o.SIDCost != nil && js.SID != "" {
			if c, ok := o.SIDCost(js.SID); ok {
				resp.SIDCost = c
			}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		var spans []obs.Span
		if r.URL.Query().Get("drain") == "1" {
			spans = o.Tracer.Drain()
		} else {
			spans = o.Tracer.Spans()
		}
		_ = obs.WriteSpansJSONL(w, spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "clusterbft introspection\n\n"+
			"/metrics\n/healthz\n/jobs\n/jobs/{id}\n/jobs/{id}/stragglers\n/trace[?drain=1]\n/debug/pprof/\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a started introspection listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Request-side deadlines, so a peer that connects and stalls cannot hold
// a connection (and its goroutine) for the life of the run. WriteTimeout
// stays unset on purpose: /debug/pprof/profile?seconds=N and a large
// /trace body legitimately write for longer than any fixed bound.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

// Start listens on addr (":8080", "127.0.0.1:0", ...) and serves the
// introspection handler in a background goroutine. The returned
// Server's Addr reports the bound address, so ":0" works for tests and
// port auto-assignment.
func Start(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           Handler(o),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
