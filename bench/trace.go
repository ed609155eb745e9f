package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"prid/internal/store"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root span. Spans of one
// request share ReqID, which is also sent as X-Request-ID on live
// requests so a span can be matched to the server's /debug/requests.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ReqID  string `json:"request_id"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the replay's batch function runs on the batcher's
// goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int64, reqID string) int64 {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: at, End: at, ReqID: reqID})
	return id
}

// end closes the span with the given ID.
func (t *tracer) end(id int64) {
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add records an already-timed span (live requests are timed by the
// generator and added after the phase) and returns its ID.
func (t *tracer) add(name string, parent int64, reqID string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), ReqID: reqID})
	return id
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time in nanoseconds
// and the number of spans with that name. A span's self time is its
// duration minus the part of its interval that its direct children
// cover; overlapping children count once, and a child sticking out of
// its parent counts only inside it.
func selfTimes(spans []span) (self map[string]int64, count map[string]int) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]int64{}
	count = map[string]int{}
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
		count[s.Name]++
	}
	return self, count
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// meanSelf returns the mean self time in microseconds of the spans
// named name per root span named per (0 when there are none).
func meanSelf(self map[string]int64, count map[string]int, name, per string) float64 {
	if count[per] == 0 {
		return 0
	}
	return float64(self[name]) / 1e3 / float64(count[per])
}

// traceFile is the JSON layout of DIR/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfUSPerRoot is each span name's mean self time in microseconds
	// per root span of its kind ("request" for live requests, "replay"
	// for replayed ones).
	SelfUSPerRoot map[string]float64 `json:"self_us_per_root"`
	Spans         []span             `json:"spans"`
}

// writeTrace writes the spans and their per-name self times to
// dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed uint64, spans []span) error {
	self, count := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	perRoot := map[string]float64{}
	for _, s := range spans {
		if _, done := perRoot[s.Name]; done {
			continue
		}
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		perRoot[s.Name] = meanSelf(self, count, s.Name, root.Name)
	}
	//pridlint:allow leaksurface span names and timings only, no class rows or reconstructions
	data, err := json.MarshalIndent(traceFile{Workload: workload, Seed: seed, SelfUSPerRoot: perRoot, Spans: spans}, "", " ")
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return store.AtomicWriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}
