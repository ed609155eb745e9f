package main

import (
	"fmt"
	"strings"
	"time"

	"prid/internal/gateway"
	"prid/internal/store"
)

// backendFlags collects repeated --backend URL values.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, ",") }

func (b *backendFlags) Set(v string) error {
	for _, url := range strings.Split(v, ",") {
		url = strings.TrimSpace(url)
		if url == "" {
			continue
		}
		*b = append(*b, url)
	}
	return nil
}

// cmdGateway runs the consistent-hash coordinator in front of a fleet of
// `prid serve` backends: same /v1 API surface, plus /gatewayz for the
// membership view. Drains on SIGINT/SIGTERM like serve.
func cmdGateway(args []string) error {
	fs := newFlagSet("gateway")
	listen := fs.String("listen", ":8090", "listen address (\":0\" picks a free port)")
	var backends backendFlags
	fs.Var(&backends, "backend", "backend base URL, e.g. http://127.0.0.1:8080 (repeatable or comma-separated)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	seed := fs.Uint64("seed", 1, "ring layout seed (same seed + backends = identical routing)")
	replicas := fs.Int("replicas", 2, "replica fan-out breadth per model (capped at the backend count)")
	quorum := fs.Bool("quorum", false, "require a bit-identical majority across replicas instead of first-success")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "backend readiness probe period")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive failed probes before ejecting a backend")
	inflight := fs.Int("max-inflight", 256, "max concurrently admitted requests (503 beyond)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request processing timeout")
	drain := fs.Duration("drain", 15*time.Second, "max time to drain in-flight requests on shutdown")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	storeDir := fs.String("store", "", "expose this snapshot store's manifest heads on /gatewayz (provenance view; the gateway loads nothing from it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(backends) == 0 {
		return fmt.Errorf("gateway: no backends (use --backend URL at least once)")
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, store.Config{}); err != nil {
			return err
		}
	}
	g, err := gateway.New(gateway.Config{
		Addr:           *listen,
		Backends:       backends,
		VNodes:         *vnodes,
		Seed:           *seed,
		Replicas:       *replicas,
		Quorum:         *quorum,
		ProbeInterval:  *probeInterval,
		FailThreshold:  *failThreshold,
		MaxInFlight:    *inflight,
		RequestTimeout: *timeout,
		Store:          st,
	})
	if err != nil {
		return err
	}
	return runUntilSignal("gateway", g, *addrFile, *drain,
		fmt.Sprintf("%d backends, replicas=%d, quorum=%v; /v1/* /gatewayz /debug/vars /debug/pprof", len(backends), *replicas, *quorum))
}
