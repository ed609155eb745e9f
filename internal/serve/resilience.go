package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"prid/internal/obs"
)

// maxRetryAfter caps the adaptive Retry-After hint (seconds).
const maxRetryAfter = 8

// retryAfterSeconds turns the observed in-flight depth into the
// Retry-After hint on a 503. An almost-idle server invites an immediate
// retry (1s); a saturated one pushes clients out to maxRetryAfter so the
// herd thins instead of re-stampeding in lockstep.
func retryAfterSeconds(depth, capacity int) int {
	if capacity <= 0 || depth <= 0 {
		return 1
	}
	sec := (depth*maxRetryAfter + capacity - 1) / capacity
	if sec < 1 {
		sec = 1
	}
	if sec > maxRetryAfter {
		sec = maxRetryAfter
	}
	return sec
}

// shedFractions ranks endpoints by how early `prid serve` degrades them
// under load. The expensive analysis endpoints go first so /v1/predict —
// the paper's query-access hot path — keeps the full admission budget:
// the leakage audit sheds at half capacity, the attack view at three
// quarters, similarity probes at 90%. Everything absent here is rejected
// only by the semaphore itself. The gateway passes no table: its
// backends shed for themselves.
var shedFractions = map[string]float64{
	"audit":        0.50,
	"reconstruct":  0.75,
	"similarities": 0.90,
}

// shedThreshold returns the in-flight depth at which an endpoint with
// shed fraction f starts shedding (== max, for an endpoint without a
// positive fraction, means only full capacity rejects).
func shedThreshold(f float64, max int) int {
	if f <= 0 {
		return max
	}
	th := int(math.Ceil(f * float64(max)))
	if th < 1 {
		th = 1
	}
	if th > max {
		th = max
	}
	return th
}

// reject answers a 503 with the adaptive Retry-After hint and records it
// in the endpoint's request/error counters plus the shed-or-rejected
// counter. The error body carries the request ID assigned upstream, so a
// shed request stays correlatable in client logs.
func (e *Edge) reject(w http.ResponseWriter, r *http.Request, m *endpointMetrics, depth int, shed bool, err error) {
	if shed {
		m.shed.Inc()
	} else {
		e.metricRejected.Inc()
	}
	m.requests.Inc()
	m.errors.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(depth, e.cfg.MaxInFlight)))
	WriteError(w, r, http.StatusServiceUnavailable, err) //pridlint:allow errdrop response already committed; the rejection itself is the signal
}

// recovery converts a handler panic into a 500 JSON error so one
// poisoned request cannot take out the connection; the serving goroutine
// answers and lives on. http.ErrAbortHandler is re-raised — it is the
// sanctioned way to drop a connection (the fault injector's Drop fault
// and the truncation abort both use it) and must keep its net/http
// semantics.
func (e *Edge) recovery(name string, m *endpointMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(p)
				}
				e.metricPanics.Inc()
				m.errors.Inc()
				e.log.Error("handler panic recovered", "endpoint", name,
					"req_id", obs.ReqTraceFrom(r.Context()).ID(), "panic", p)
				WriteError(w, r, http.StatusInternalServerError, //pridlint:allow errdrop response already committed; the panic is already logged and counted
					fmt.Errorf("internal error: recovered from panic: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}
