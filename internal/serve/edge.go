package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"prid/internal/faultinject"
	"prid/internal/obs"
	"prid/internal/serve/wire"
)

// Backend answers the /v1 operations an Edge serves. *engine.Engine
// implements it over a local registry; internal/gateway implements it
// over a ring of remote `prid serve` backends. An error that carries an
// HTTP status (*HTTPError) keeps it on the wire; any other error maps by
// its engine.Kind.
type Backend interface {
	Models(ctx context.Context) ([]wire.ModelInfo, error)
	Reload(ctx context.Context) (wire.ReloadResponse, error)
	// Predict classifies rows; field names the request field the rows
	// came from ("input" or "inputs") for validation errors.
	Predict(ctx context.Context, model string, rows [][]float64, field string) ([]int, error)
	Similarities(ctx context.Context, model string, row []float64) (int, []float64, error)
	Reconstruct(ctx context.Context, model string, query []float64) (wire.Reconstruction, error)
	AuditLeakage(ctx context.Context, model string, train, queries [][]float64) (float64, error)
}

// HTTPError is a Backend failure that already knows its HTTP answer —
// the gateway's relayed backend 4xx, its 502, and its all-replicas-shed
// 503.
type HTTPError struct {
	Status int
	// RetryAfter is the Retry-After hint in seconds; 0 sends none.
	RetryAfter int
	Err        error
}

func (e *HTTPError) Error() string { return e.Err.Error() }
func (e *HTTPError) Unwrap() error { return e.Err }

// Edge is the one HTTP front of the serving stack, shared by `prid
// serve` and `prid gateway`: the /v1 handlers answered from a Backend,
// the resilience and observability stack around them, the debug
// surface, and the listener's lifecycle. What differs between the two
// processes comes in as data: the metric prefix, the trace stage a
// Backend call ends, the shed table, and the fault injector.
type Edge struct {
	cfg     Config
	backend Backend
	prefix  string
	// stage names the request-trace stage that ends when a Backend call
	// returns ("service" locally, "proxy" across the ring).
	stage string
	shed  map[string]float64
	sem   chan struct{}
	// slow retains the slowest completed request traces for
	// /debug/requests — the per-request latency evidence the aggregate
	// histograms cannot show.
	slow *obs.TraceRing
	log  *slog.Logger

	metricInFlight     *obs.Gauge
	metricRejected     *obs.Counter
	metricPanics       *obs.Counter
	metricLoopFailures *obs.Counter

	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
	// draining flips when Shutdown begins; the owners' /readyz reports
	// 503 from then on so balancers stop routing here while in-flight
	// work finishes.
	draining atomic.Bool
}

// NewEdge builds the edge over b. prefix names its metrics and log
// component ("serve", "gateway"), stage the trace stage a Backend call
// ends, and shed the in-flight fraction at which each endpoint starts
// shedding (nil sheds nothing). Of cfg it reads Addr, MaxInFlight,
// RequestTimeout, SlowTraces and Injector.
func NewEdge(b Backend, cfg Config, prefix, stage string, shed map[string]float64) *Edge {
	cfg = cfg.withDefaults()
	e := &Edge{
		cfg:                cfg,
		backend:            b,
		prefix:             prefix,
		stage:              stage,
		shed:               shed,
		sem:                make(chan struct{}, cfg.MaxInFlight),
		slow:               obs.NewTraceRing(cfg.SlowTraces),
		log:                obs.Logger(prefix),
		metricInFlight:     obs.GetGauge(prefix + ".inflight"),
		metricRejected:     obs.GetCounter(prefix + ".rejected"),
		metricPanics:       obs.GetCounter(prefix + ".panics"),
		metricLoopFailures: obs.GetCounter(prefix + ".loop_failures"),
		mux:                http.NewServeMux(),
	}
	e.mux.Handle("/v1/models", e.limited("models", http.MethodGet, e.handleModels))
	e.mux.Handle("/v1/models/reload", e.limited("models", http.MethodPost, e.handleReload))
	e.mux.Handle("/v1/predict", e.limited("predict", http.MethodPost, e.handlePredict))
	e.mux.Handle("/v1/similarities", e.limited("similarities", http.MethodPost, e.handleSimilarities))
	e.mux.Handle("/v1/reconstruct", e.limited("reconstruct", http.MethodPost, e.handleReconstruct))
	e.mux.Handle("/v1/audit/leakage", e.limited("audit", http.MethodPost, e.handleAuditLeakage))
	obs.PublishExpvar()
	registerDebug(e.mux)
	e.mux.HandleFunc("/debug/requests", e.handleDebugRequests)
	e.srv = &http.Server{Handler: e.mux, ReadHeaderTimeout: 5 * time.Second}
	return e
}

// HandleFunc mounts one of the owner's own endpoints (its probes) beside
// the /v1 and debug surface. Call it before Start.
func (e *Edge) HandleFunc(pattern string, h http.HandlerFunc) { e.mux.HandleFunc(pattern, h) }

// Start binds the configured address and serves in a background
// goroutine until Shutdown.
func (e *Edge) Start() error {
	ln, err := net.Listen("tcp", e.cfg.Addr)
	if err != nil {
		return fmt.Errorf("%s: listening on %s: %w", e.prefix, e.cfg.Addr, err)
	}
	e.ln = ln
	// A serve loop that dies for any reason other than a requested
	// shutdown means the process is up but silently not serving — log it
	// and count it so /debug/vars and the logs show the outage.
	go func() {
		if err := e.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			e.metricLoopFailures.Inc()
			e.log.Error("serve loop exited", "err", err)
		}
	}()
	return nil
}

// Addr returns the bound address (resolving ":0" to the real port).
// Only valid after Start.
func (e *Edge) Addr() string { return e.ln.Addr().String() }

// Draining reports whether Shutdown has begun.
func (e *Edge) Draining() bool { return e.draining.Load() }

// Shutdown marks the edge draining, stops accepting new connections and
// waits for in-flight requests to finish, bounded by ctx. It returns at
// once on an edge that never started, and is safe to call twice.
func (e *Edge) Shutdown(ctx context.Context) error {
	e.draining.Store(true)
	if err := e.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("%s: shutdown: %w", e.prefix, err)
	}
	return nil
}

// limited wraps an endpoint handler with the edge's resilience and
// observability stack, outermost first: request-ID assignment (keeping
// the client's, which then rides any backend hop) and the request trace,
// tiered load shedding and the concurrency semaphore (503 + adaptive
// Retry-After), the request timeout, panic recovery, the optional
// fault-injection middleware, and per-endpoint request/error/latency
// metrics around the method check and the handler itself.
func (e *Edge) limited(name, method string, h func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	m := newEndpointMetrics(e.prefix, name, e.shed != nil)
	core := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		err := requireMethod(w, r, method)
		if err == nil {
			err = h(w, r)
		}
		obs.ReqTraceFrom(r.Context()).Mark(stageWrite)
		m.observe(start, err != nil)
		if err != nil {
			e.log.Debug("request failed", "endpoint", name,
				"req_id", obs.ReqTraceFrom(r.Context()).ID(), "err", err)
		}
	})
	var inner http.Handler = core
	if e.cfg.Injector != nil {
		inner = faultinject.Middleware(e.cfg.Injector, name, inner)
	}
	inner = e.recovery(name, m, inner)
	shedAt := shedThreshold(e.shed[name], e.cfg.MaxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every request gets an ID (the client's, when it sent one) and a
		// trace before any admission decision, so even a shed 503 is
		// correlatable across client logs, server logs, and the error
		// body. The ID is echoed on every response.
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tr := obs.NewReqTrace(id, name)
		r = r.WithContext(obs.ContextWithReqTrace(r.Context(), tr))
		defer func() {
			tr.Finish()
			e.slow.Record(tr)
		}()

		// Tiered degradation: sheddable endpoints give way while the
		// edge still has headroom for the hot path. The depth read is
		// approximate (racy against concurrent admits) — shedding is a
		// pressure valve, not an invariant.
		if depth := len(e.sem); shedAt < e.cfg.MaxInFlight && depth >= shedAt {
			e.reject(w, r, m, depth, true,
				fmt.Errorf("shedding %s under load (%d/%d in flight)", name, depth, e.cfg.MaxInFlight))
			return
		}
		select {
		case e.sem <- struct{}{}:
		default:
			e.reject(w, r, m, e.cfg.MaxInFlight, false,
				fmt.Errorf("server at capacity (%d requests in flight)", e.cfg.MaxInFlight))
			return
		}
		tr.Mark(stageAdmitted)
		e.metricInFlight.Set(float64(len(e.sem)))
		defer func() {
			<-e.sem
			e.metricInFlight.Set(float64(len(e.sem)))
		}()

		ctx, cancel := context.WithTimeout(r.Context(), e.cfg.RequestTimeout)
		defer cancel()
		inner.ServeHTTP(w, r.WithContext(ctx))
	})
}
