// Package serve is the one HTTP edge of the PRID serving stack. The
// paper's whole point is what a deployed model gives away, so beside
// prediction the same boundary exposes the attacker's view
// (/v1/reconstruct) and a defender self-audit (/v1/audit/leakage):
// PRID's threat model is an adversary with query access to a shared or
// served model; this package is that query access made concrete.
//
// An Edge owns everything HTTP: routing, the JSON codecs (the wire types
// live in internal/serve/wire), admission control (503 + Retry-After
// when saturated), tiered load shedding, panic recovery, per-request
// timeouts, request-ID assignment and tracing, the debug surface, and
// graceful drain. It answers /v1 from a Backend. `prid serve` is a
// Server: an Edge over a local engine (internal/serve/engine), which
// owns the registry, the micro-batcher, input validation, and the
// predict/attack/audit operations. `prid gateway` is an Edge over
// internal/gateway's router, which implements Backend across a fleet of
// these servers. Both processes therefore answer with the same handlers
// and the same bytes.
//
// The package is stdlib-only, like the rest of the module.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"prid/internal/faultinject"
	"prid/internal/serve/engine"
)

// Config tunes a Server. The zero value is usable: defaults are filled in
// by NewServer.
type Config struct {
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// BatchWindow is how long the batcher holds the first request of a
	// batch open for companions (default 2ms). Smaller trades batching
	// efficiency for tail latency.
	BatchWindow time.Duration
	// BatchMax caps rows per micro-batch (default 32).
	BatchMax int
	// MaxInFlight caps concurrently admitted requests; excess requests
	// are rejected with 503 (default 64).
	MaxInFlight int
	// RequestTimeout bounds one request's total processing time
	// (default 30s; audits over large probe sets are the slow case).
	RequestTimeout time.Duration
	// SlowTraces is how many of the slowest request traces /debug/requests
	// retains (default 32).
	SlowTraces int
	// Injector, when non-nil, wraps every /v1 endpoint with the
	// deterministic chaos middleware (site = the endpoint's short name:
	// "predict", "models", ...). Used by `prid serve --chaos` and the
	// cmd/chaos-smoke gate; nil in normal operation.
	Injector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SlowTraces <= 0 {
		c.SlowTraces = 32
	}
	return c
}

// Server is `prid serve`: an Edge over a local engine, plus the
// process's own liveness and readiness probes. Create with NewServer,
// populate the registry, then Start and eventually Shutdown.
type Server struct {
	cfg  Config
	eng  *engine.Engine
	edge *Edge
}

// NewServer builds a server around cfg with an empty registry.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	eng := engine.New(engine.Config{BatchWindow: cfg.BatchWindow, BatchMax: cfg.BatchMax})
	s := &Server{cfg: cfg, eng: eng, edge: NewEdge(eng, cfg, "serve", stageService, shedFractions)}
	s.edge.HandleFunc("/healthz", s.handleHealth)
	s.edge.HandleFunc("/readyz", s.handleReady)
	return s
}

// Registry exposes the server's model registry for population and
// inspection.
func (s *Server) Registry() *engine.Registry { return s.eng.Registry() }

// Start binds the configured address and serves in a background
// goroutine until Shutdown.
func (s *Server) Start() error {
	if err := s.edge.Start(); err != nil {
		return err
	}
	//pridlint:allow leaksurface logs the bound address and batching config only, nothing model-derived
	logger.Info("serving", "addr", s.Addr(), "models", s.Registry().Len(),
		"batch_window", s.cfg.BatchWindow, "batch_max", s.cfg.BatchMax,
		"max_inflight", s.cfg.MaxInFlight)
	return nil
}

// Addr returns the bound address (resolving ":0" to the real port).
// Only valid after Start.
func (s *Server) Addr() string { return s.edge.Addr() }

// Shutdown marks the server draining (visible on /readyz), stops
// accepting new connections, waits for in-flight requests to drain
// (bounded by ctx), then closes the engine's batchers.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.edge.Shutdown(ctx)
	s.eng.Close()
	if err != nil {
		return err
	}
	logger.Info("drained and stopped")
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok %d models\n", s.Registry().Len()) //pridlint:allow errdrop probe response; a write failure has no in-band recovery
}

// handleReady is the orchestration-facing readiness probe, distinct from
// the /healthz liveness probe: a live process is not ready to take
// traffic before any model is loaded, and stops being ready the moment a
// drain begins — exactly the windows where a balancer must route around
// it even though the process is healthy.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	reg := s.Registry()
	switch {
	case s.edge.Draining():
		WriteError(w, r, http.StatusServiceUnavailable, errors.New("draining")) //pridlint:allow errdrop probe response; the balancer only reads the status code
	case reg.Len() == 0:
		WriteError(w, r, http.StatusServiceUnavailable, errors.New("no models loaded")) //pridlint:allow errdrop probe response; the balancer only reads the status code
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ready %d models\n", reg.Len()) //pridlint:allow errdrop probe response; a write failure has no in-band recovery
		// Store-backed models append their served generation and payload
		// checksum — the one-line provenance a fleet operator scrapes to
		// confirm which snapshot each backend recovered to after a crash.
		for _, info := range reg.List() {
			if info.Generation > 0 {
				fmt.Fprintf(w, "model %s generation %d sha256 %s\n", info.Name, info.Generation, info.Checksum) //pridlint:allow errdrop probe response; a write failure has no in-band recovery
			}
		}
	}
}
