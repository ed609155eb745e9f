// Package gateway is the horizontal-scale front of the PRID serving
// stack: a router that consistent-hash-routes model names across a fleet
// of `prid serve` backends, so the registry — and the paper's
// query-access attack surface with it — stops being a single-process
// property.
//
// The gateway has no HTTP stack of its own. *Gateway implements
// serve.Backend — predict, similarities, reconstruct and audit routed
// over the ring, the fleet union for Models, Reload fanned out to every
// backend — and serves /v1 through the same serve.Edge as a single
// node, under the "gateway" metric prefix, with no shed table and no
// fault injector. It adds only /healthz, /readyz and /gatewayz.
//
// Topology: every backend serves the full model set (fleet replication);
// the ring assigns each model name an owner plus an ordered failover set
// (Replicas backends), which concentrates a model's cache- and
// batcher-warm traffic on few nodes while any survivor can absorb a
// reassigned range bit-identically — HDC inference is deterministic, so
// re-sharding is invisible in the answers, and the gateway-smoke gate
// asserts exactly that.
//
// Membership is readyz-driven: a background prober ejects a backend
// from the ring after FailThreshold consecutive failed probes and
// rejoins it on the first success, with every transition logged on
// /gatewayz. In the detection gap, the router fails over synchronously
// along the replica set. Per-backend transport is internal/serve/client
// — the retrying client with circuit breaker — and the inbound
// X-Request-ID rides the hop, so one user request correlates across
// gateway and backend logs and /debug/requests rings.
//
// The package is stdlib-only, like the rest of the module.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prid/internal/serve"
	"prid/internal/serve/client"
	"prid/internal/store"
)

// Config tunes a Gateway. Backends is required; everything else has a
// default.
type Config struct {
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// Backends are the base URLs of the `prid serve` fleet, e.g.
	// "http://127.0.0.1:9001". All start as ring members; the prober
	// corrects within a probe interval.
	Backends []string
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// Seed fixes the ring layout (default 1): same seed + member set =
	// identical routing on every gateway replica and restart.
	Seed uint64
	// Replicas is the fan-out breadth per model name (default 2, capped
	// at the backend count): the ring owner plus the next distinct
	// members, used as the synchronous-failover set — and, under Quorum,
	// queried together.
	Replicas int
	// Quorum switches the deterministic read endpoints (predict,
	// similarities, reconstruct, audit) from first-success failover to
	// quorum-identical fan-out: all Replicas candidates answer, a strict
	// majority must agree bit-identically, and disagreement is surfaced
	// as a 502 plus the gateway.quorum_mismatches counter — a divergent
	// backend is a correctness event, not a load-balancing event.
	Quorum bool
	// ProbeInterval is the readiness sweep period (default 250ms);
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold consecutive failed probes eject a backend (default 2).
	FailThreshold int
	// MaxInFlight caps concurrently admitted requests at the gateway edge
	// (default 256 — the gateway is a router, it holds no model memory).
	MaxInFlight int
	// RequestTimeout bounds one inbound request (default 30s).
	RequestTimeout time.Duration
	// SlowTraces sizes the /debug/requests ring (default 32).
	SlowTraces int
	// Per-backend client tuning. The gateway keeps per-call retries short
	// (default 3 attempts, 10ms base backoff) because the replica set is
	// its real retry budget: failing over beats backing off.
	ClientMaxAttempts int
	ClientBaseBackoff time.Duration
	ClientMaxBackoff  time.Duration
	// EventLog caps the /gatewayz membership event history (default 64).
	EventLog int
	// Store, when non-nil, gives the gateway a provenance view of the
	// fleet's snapshot store: /gatewayz reports each model's manifest
	// head (newest claimed generation, checksum, leakage Δ) so an
	// operator can spot a backend serving an older generation than the
	// store holds — the rollback evidence the snapshot layer exists to
	// make visible. The gateway never loads models from it.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8090"
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Backends) && len(c.Backends) > 0 {
		c.Replicas = len(c.Backends)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SlowTraces <= 0 {
		c.SlowTraces = 32
	}
	if c.ClientMaxAttempts <= 0 {
		c.ClientMaxAttempts = 3
	}
	if c.ClientBaseBackoff <= 0 {
		c.ClientBaseBackoff = 10 * time.Millisecond
	}
	if c.ClientMaxBackoff <= 0 {
		c.ClientMaxBackoff = 250 * time.Millisecond
	}
	if c.EventLog <= 0 {
		c.EventLog = 64
	}
	return c
}

// MemberEvent is one membership transition on /gatewayz.
type MemberEvent struct {
	Seq     int64     `json:"seq"`
	Time    time.Time `json:"time"`
	Backend string    `json:"backend"`
	Up      bool      `json:"up"`
	Reason  string    `json:"reason"`
}

// Gateway fronts a fleet of PRID serving backends. Create with New,
// then Start and eventually Shutdown.
type Gateway struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend // keyed by URL; immutable after New
	order    []string            // cfg.Backends order, for deterministic sweeps

	// edge serves /v1 from the gateway's Backend methods, beside the
	// gateway's own probes and membership view.
	edge *serve.Edge
	// probe is the raw readiness prober (no retries — a probe that needs
	// retries is a failed probe).
	probe *http.Client

	stopOnce  sync.Once
	probeStop chan struct{}
	// probeDone closes when the prober exits; nil until Start launches it.
	probeDone chan struct{}

	evMu     sync.Mutex
	evSeq    int64
	events   []MemberEvent
	healthyN atomic.Int64
}

// New validates the backend list and builds the gateway. Every backend
// starts as a healthy ring member; the first probe sweep corrects that
// before Start returns.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	g := &Gateway{
		cfg:       cfg,
		ring:      NewRing(cfg.Seed, cfg.VNodes),
		backends:  make(map[string]*backend, len(cfg.Backends)),
		probe:     &http.Client{Timeout: cfg.ProbeTimeout},
		probeStop: make(chan struct{}),
	}
	for _, url := range cfg.Backends {
		if _, dup := g.backends[url]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %q", url)
		}
		cli, err := client.New(client.Config{
			BaseURL:     url,
			MaxAttempts: cfg.ClientMaxAttempts,
			BaseBackoff: cfg.ClientBaseBackoff,
			MaxBackoff:  cfg.ClientMaxBackoff,
			// The breaker cooldown stays short: the prober, not the
			// breaker, owns long-term ejection.
			BreakerThreshold: 2 * cfg.ClientMaxAttempts,
			BreakerCooldown:  cfg.ProbeInterval,
			JitterSeed:       cfg.Seed ^ g.ring.hash64(url),
		})
		if err != nil {
			return nil, fmt.Errorf("gateway: backend %q: %w", url, err)
		}
		b := &backend{url: url, cli: cli}
		b.healthy.Store(true)
		g.backends[url] = b
		g.order = append(g.order, url)
		g.ring.Add(url)
	}
	g.healthyN.Store(int64(len(g.order)))
	// The edge takes no shed table (the backends own the expensive work
	// and shed for themselves) and no fault injector.
	g.edge = serve.NewEdge(g, serve.Config{
		Addr:           cfg.Addr,
		MaxInFlight:    cfg.MaxInFlight,
		RequestTimeout: cfg.RequestTimeout,
		SlowTraces:     cfg.SlowTraces,
	}, "gateway", stageProxy, nil)
	g.edge.HandleFunc("/healthz", g.handleHealth)
	g.edge.HandleFunc("/readyz", g.handleReady)
	g.edge.HandleFunc("/gatewayz", g.handleGatewayz)
	return g, nil
}

// Start runs one synchronous probe sweep (so a backend that is already
// down never owns a hash range), binds the address, serves in a
// background goroutine, and starts the prober.
func (g *Gateway) Start() error {
	g.sweep()
	if err := g.edge.Start(); err != nil {
		return err
	}
	g.probeDone = make(chan struct{})
	go g.prober(g.probeDone)
	//pridlint:allow leaksurface logs the bound address and ring topology config only
	logger.Info("gateway serving", "addr", g.Addr(), "backends", len(g.order),
		"healthy", g.healthyN.Load(), "replicas", g.cfg.Replicas, "quorum", g.cfg.Quorum,
		"vnodes", g.cfg.VNodes, "seed", g.cfg.Seed)
	return nil
}

// Addr returns the bound address (resolving ":0" to the real port).
// Only valid after Start.
func (g *Gateway) Addr() string { return g.edge.Addr() }

// Shutdown marks the gateway draining (visible on /readyz), drains
// in-flight requests, and stops the prober, all bounded by ctx. It
// returns at once on a gateway whose Start failed or never ran, and is
// safe to call more than once (gates defer a shutdown beside their
// explicit one).
func (g *Gateway) Shutdown(ctx context.Context) error {
	err := g.edge.Shutdown(ctx)
	g.stopOnce.Do(func() { close(g.probeStop) })
	if g.probeDone != nil && err == nil {
		select {
		case <-g.probeDone:
		case <-ctx.Done():
			err = fmt.Errorf("gateway: shutdown: %w", ctx.Err())
		}
	}
	if err != nil {
		return err
	}
	logger.Info("gateway drained and stopped")
	return nil
}

// --- membership -------------------------------------------------------

// prober sweeps backend readiness until Shutdown, then closes done.
func (g *Gateway) prober(done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-tick.C:
			g.sweep()
		}
	}
}

// sweep probes every backend once, concurrently, and applies the
// eject/rejoin transitions.
func (g *Gateway) sweep() {
	var wg sync.WaitGroup
	for _, url := range g.order {
		b := g.backends[url]
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			err := g.probeOne(b)
			if err != nil {
				metricProbeFailures.Inc()
				fails := b.probeFails.Add(1)
				if fails >= int64(g.cfg.FailThreshold) {
					g.markDown(b, fmt.Sprintf("%d consecutive readyz failures: %v", fails, err))
				}
				return
			}
			b.probeFails.Store(0)
			g.markUp(b, "readyz ok")
		}(b)
	}
	wg.Wait()
}

// probeOne performs one raw readiness probe — no retries, no breaker:
// the health verdict must reflect this instant, not the client's
// resilience machinery.
func (g *Gateway) probeOne(b *backend) error {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := g.probe.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close() //pridlint:allow errdrop probe body is irrelevant; only the status code matters
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz status %d", resp.StatusCode)
	}
	return nil
}

// markDown ejects b from the ring (idempotent): its hash ranges
// reassign to the surviving members' vnode successors.
func (g *Gateway) markDown(b *backend, reason string) {
	if !b.healthy.CompareAndSwap(true, false) {
		return
	}
	g.ring.Remove(b.url)
	g.healthyN.Add(-1)
	b.transitions.Add(1)
	b.lastTransitionNS.Store(time.Now().UnixNano())
	metricEjections.Inc()
	g.recordEvent(b.url, false, reason)
	logger.Warn("backend ejected", "backend", b.url, "reason", reason,
		"healthy", g.healthyN.Load(), "total", len(g.order))
}

// markUp rejoins b (idempotent): it takes back exactly the ranges its
// vnodes owned before ejection — same seed, same layout.
func (g *Gateway) markUp(b *backend, reason string) {
	if !b.healthy.CompareAndSwap(false, true) {
		return
	}
	g.ring.Add(b.url)
	g.healthyN.Add(1)
	b.transitions.Add(1)
	b.lastTransitionNS.Store(time.Now().UnixNano())
	metricRejoins.Inc()
	g.recordEvent(b.url, true, reason)
	logger.Info("backend rejoined", "backend", b.url,
		"healthy", g.healthyN.Load(), "total", len(g.order))
}

// recordEvent appends to the bounded membership event log.
func (g *Gateway) recordEvent(url string, up bool, reason string) {
	g.evMu.Lock()
	defer g.evMu.Unlock()
	g.evSeq++
	g.events = append(g.events, MemberEvent{
		Seq: g.evSeq, Time: time.Now().UTC(), Backend: url, Up: up, Reason: reason,
	})
	if n := len(g.events) - g.cfg.EventLog; n > 0 {
		g.events = append(g.events[:0], g.events[n:]...)
	}
}

// eventsSnapshot copies the membership event log.
func (g *Gateway) eventsSnapshot() []MemberEvent {
	g.evMu.Lock()
	defer g.evMu.Unlock()
	out := make([]MemberEvent, len(g.events))
	copy(out, g.events)
	return out
}
