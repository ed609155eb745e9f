package serve

import (
	"time"

	"prid/internal/obs"
)

// logger is the engine-backed server's component logger; an Edge logs
// under its own metric prefix.
var logger = obs.Logger("serve")

// endpointMetrics are one /v1 endpoint's handles, resolved once when the
// edge is built per the obs hot-path discipline: request accounting is a
// few atomic adds, no lookups by name. Names are
// "<prefix>.<endpoint>.<metric>"; reload shares "models".
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	seconds  *obs.Histogram
	// shed counts tiered load-shedding rejections (capacity rejections
	// land in the edge's rejected counter); nil on an edge that sheds
	// nothing.
	shed *obs.Counter
}

func newEndpointMetrics(prefix, name string, shedding bool) *endpointMetrics {
	base := prefix + "." + name + "."
	m := &endpointMetrics{
		requests: obs.GetCounter(base + "requests"),
		errors:   obs.GetCounter(base + "errors"),
		seconds:  obs.GetHistogram(base+"seconds", nil),
	}
	if shedding {
		m.shed = obs.GetCounter(base + "shed")
	}
	return m
}

// observe records one completed request.
func (m *endpointMetrics) observe(start time.Time, failed bool) {
	m.requests.Inc()
	m.seconds.ObserveSince(start)
	if failed {
		m.errors.Inc()
	}
}

// Edge-owned stage names of the request trace. The backend marks its
// own stages between these (the engine's batch queue wait and predict),
// and the edge marks its configured stage — "service" locally, "proxy"
// at the gateway — when the backend call returns. Each Mark records the
// END of the named stage, so the /debug/requests breakdown reads as
// consecutive deltas.
const (
	stageAdmitted = "admitted"
	stageService  = "service"
	stageWrite    = "write"
)
