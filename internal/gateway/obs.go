package gateway

import "prid/internal/obs"

// Metric handles are resolved once at package init per the obs hot-path
// discipline. Fleet-global routing and membership behavior lives here
// under gateway.*; the per-endpoint request, error, latency, admission
// and panic metrics are the edge's, under the same gateway.* prefix
// (internal/serve). Per-backend accounting lives in the backend struct's atomics and is
// surfaced on /gatewayz (dynamic metric names per backend URL would
// defeat the fixed-roster registry).
var (
	logger = obs.Logger("gateway")

	// metricFailovers counts synchronous replica failovers: a candidate
	// failed and the router moved to the next one. Nonzero failovers with
	// zero client-visible errors is the fleet working as designed.
	metricFailovers = obs.GetCounter("gateway.failovers")
	// metricQuorumMismatches counts quorum fan-outs where replicas
	// returned non-identical answers — a determinism violation somewhere
	// in the fleet, never expected in a healthy deployment.
	metricQuorumMismatches = obs.GetCounter("gateway.quorum_mismatches")

	// Membership dynamics, driven by the readiness prober.
	metricProbeFailures = obs.GetCounter("gateway.probe_failures")
	metricEjections     = obs.GetCounter("gateway.ejections")
	metricRejoins       = obs.GetCounter("gateway.rejoins")
)

// stageProxy is the gateway's request-trace stage: the routed backend
// round trip(s), marked by its edge when a Backend call returns, between
// the edge's own admission and write stages. The backend's own stages
// appear in its /debug/requests ring under the same request ID — that
// is what the X-Request-ID propagation buys.
const stageProxy = "proxy"
