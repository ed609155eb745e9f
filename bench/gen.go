package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one stretch of traffic. An open-loop phase sends count
// requests on a fixed schedule, one every 1/rate seconds, whatever the
// answers do; a closed-loop phase has each worker send its next request
// as soon as the previous one returns, until dur has passed. Either way
// the phase owns bodies [first, first+count) of the workload's feed, so
// no body is sent twice within a phase (a closed-loop phase that outruns
// its share wraps around and says so in its result).
type phase struct {
	name   string
	open   bool
	rate   float64
	dur    time.Duration
	first  int
	count  int
	traced bool
}

// due returns the send time of the phase's i-th request, relative to the
// phase start. Only open-loop phases have a schedule.
func (ph phase) due(i int) time.Duration {
	return time.Duration(float64(i) / ph.rate * float64(time.Second))
}

// sample is one request as the generator saw it. Times are relative to
// the phase start: due is when the request was due (for a closed-loop
// request, when its worker became free), grab when a worker picked it
// up, send when it went out, done when the whole answer was read.
type sample struct {
	body                  int
	due, grab, send, done time.Duration
	status                int // 0 when the transport failed
	resp                  []byte
}

func (s sample) ok() bool { return s.status == http.StatusOK }

// late returns how long the generator itself held the request back: from
// when it was due, or when a worker became free if that was later, to
// when it was sent. A request waiting for a busy worker is the system's
// delay, not the generator's, and is charged to its latency instead.
func (s sample) late() time.Duration { return s.send - max(s.due, s.grab) }

// phaseResult is the outcome of one phase.
type phaseResult struct {
	phase   phase
	start   time.Time
	samples []sample
	// wrapped counts closed-loop requests that reused a body of the
	// phase because the phase outran its share of the feed.
	wrapped int
}

// generator drives one endpoint from a fixed set of workers, one
// keep-alive connection each.
type generator struct {
	client  *http.Client
	url     string
	workers int
	// body appends the serialized request body k to dst.
	body func(dst []byte, k int) []byte
}

// newClient returns an HTTP client with at most n connections, all kept
// alive, no proxy, no compression and no retries of its own: Go's
// transport replays only idempotent requests, and every request here is
// a POST.
func newClient(n int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     n,
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// run executes one phase. reqID names request i in traced phases
// (sent as X-Request-ID); untraced phases send none.
func (g *generator) run(ctx context.Context, ph phase, reqID func(i int) string) phaseResult {
	res := phaseResult{phase: ph, start: time.Now()}
	var next atomic.Int64
	perWorker := make([][]sample, g.workers)
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hint := 0
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				grab := time.Since(res.start)
				var s sample
				if ph.open {
					if i >= ph.count {
						return
					}
					s.due = ph.due(i)
					if wait := s.due - grab; wait > 0 {
						time.Sleep(wait)
					}
				} else {
					if grab >= ph.dur {
						return
					}
					s.due = grab
				}
				s.grab = grab
				s.body = ph.first + i%ph.count
				body := g.body(make([]byte, 0, hint), s.body)
				hint = len(body)
				id := ""
				if reqID != nil {
					id = reqID(i)
				}
				g.send(ctx, res.start, &s, body, id)
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	for _, ss := range perWorker {
		res.samples = append(res.samples, ss...)
	}
	if !ph.open && len(res.samples) > ph.count {
		res.wrapped = len(res.samples) - ph.count
	}
	return res
}

// send posts one body and fills in the sample's send, done, status and
// response. Each request gets a body of its own: the transport may still
// be writing it after an early answer such as a 503.
func (g *generator) send(ctx context.Context, start time.Time, s *sample, body []byte, reqID string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		s.send, s.done = time.Since(start), time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	s.send = time.Since(start)
	resp, err := g.client.Do(req)
	if err == nil {
		s.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close() //pridlint:allow errdrop the body was read to EOF; ReadAll surfaced any error
		if err == nil {
			s.status = resp.StatusCode
		}
	}
	s.done = time.Since(start)
}

// phaseStats summarizes a phase's samples.
type phaseStats struct {
	n, failed           int
	p50, p90, p99, pmax float64 // ms, +Inf when failures reach the rank
	lateP99             float64 // ms
	rttMean             float64 // ms, send → done over successful requests
}

func summarize(samples []sample) phaseStats {
	lat := latencies(samples)
	st := phaseStats{n: len(samples), p50: percentile(lat, 0.50), p90: percentile(lat, 0.90),
		p99: percentile(lat, 0.99), pmax: percentile(lat, 1)}
	late := make([]float64, 0, len(samples))
	var rtt float64
	for _, s := range samples {
		late = append(late, ms(s.late()))
		if !s.ok() {
			st.failed++
			continue
		}
		rtt += ms(s.done - s.send)
	}
	sort.Float64s(late)
	st.lateP99 = percentile(late, 0.99)
	if ok := st.n - st.failed; ok > 0 {
		st.rttMean = rtt / float64(ok)
	}
	return st
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite maps +Inf (a percentile that reached failed requests) to the
// largest float64, since JSON cannot spell infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
