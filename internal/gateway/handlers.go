package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"prid/internal/serve"
	"prid/internal/store"
)

// The gateway's own endpoints, mounted on its serve.Edge beside the
// shared /v1 and debug surface: liveness and readiness in fleet terms,
// and the membership view.

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok %d/%d backends healthy\n", g.healthyN.Load(), len(g.order)) //pridlint:allow errdrop probe response; a write failure has no in-band recovery
}

// handleReady: a gateway with zero healthy backends is live but cannot
// answer, exactly the state an upstream balancer must route around.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case g.edge.Draining():
		serve.WriteError(w, r, http.StatusServiceUnavailable, errors.New("draining")) //pridlint:allow errdrop probe response; the balancer only reads the status code
	case g.healthyN.Load() == 0:
		serve.WriteError(w, r, http.StatusServiceUnavailable, errors.New("no healthy backends")) //pridlint:allow errdrop probe response; the balancer only reads the status code
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ready %d/%d backends\n", g.healthyN.Load(), len(g.order)) //pridlint:allow errdrop probe response; a write failure has no in-band recovery
	}
}

// GatewayzResponse is the membership view /gatewayz serves: the ring
// parameters, every backend's health and traffic accounting, the current
// ring member set, and the bounded transition event log. loadgen scrapes
// it before and after a run for the per-backend SLO breakdown; the
// gateway-smoke gate asserts the transitions it forces actually appear.
type GatewayzResponse struct {
	Seed        uint64          `json:"seed"`
	VNodes      int             `json:"vnodes"`
	Replicas    int             `json:"replicas"`
	Quorum      bool            `json:"quorum"`
	Healthy     int             `json:"healthy"`
	Backends    []BackendStatus `json:"backends"`
	RingMembers []string        `json:"ring_members"`
	Events      []MemberEvent   `json:"events"`
	// StoreHeads is present only when the gateway was given a snapshot
	// store (--store): each model's manifest head — the generation the
	// store *claims* is current. Comparing it against the generations the
	// backends report on /v1/models exposes a fleet serving stale or
	// rolled-back snapshots.
	StoreHeads []store.ModelHead `json:"store_heads,omitempty"`
}

func (g *Gateway) handleGatewayz(w http.ResponseWriter, r *http.Request) {
	resp := GatewayzResponse{
		Seed:        g.cfg.Seed,
		VNodes:      g.cfg.VNodes,
		Replicas:    g.cfg.Replicas,
		Quorum:      g.cfg.Quorum,
		Healthy:     int(g.healthyN.Load()),
		RingMembers: g.ring.Members(),
		Events:      g.eventsSnapshot(),
	}
	if g.cfg.Store != nil {
		// Best-effort provenance: an unreadable store must not take the
		// membership view down with it.
		if heads, err := g.cfg.Store.Heads(); err == nil {
			resp.StoreHeads = heads
		}
	}
	for _, url := range g.order {
		resp.Backends = append(resp.Backends, g.backends[url].status())
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //pridlint:allow errdrop debug readout; a write failure has no in-band recovery
}
