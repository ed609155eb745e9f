package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"prid/internal/obs"
	"prid/internal/serve/wire"
)

// TestRequestIDAssignedAndEchoed pins the X-Request-ID contract: a
// request without an ID gets one generated and echoed; a client-supplied
// ID is echoed back verbatim; and error envelopes carry the same ID so
// failures are correlatable across client and server logs.
func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, base := testServer(t, Config{BatchWindow: time.Millisecond})

	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body content irrelevant
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID generated for a bare request")
	}

	req, err := http.NewRequest(http.MethodGet, base+"/v1/models", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-chose-this")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // body content irrelevant
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this" {
		t.Fatalf("client-supplied ID echoed as %q", got)
	}

	// Error envelope: the JSON body names the same request ID the header
	// carries.
	req, err = http.NewRequest(http.MethodPost, base+"/v1/predict", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "failing-req-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("empty-body predict returned 200: %s", body)
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	if e.RequestID != "failing-req-7" {
		t.Fatalf("error body request_id = %q, want failing-req-7 (body %s)", e.RequestID, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "failing-req-7" {
		t.Fatalf("error response header X-Request-ID = %q", got)
	}
}

// TestDebugRequestsExposesStageBreakdown drives micro-batched predicts
// and reads /debug/requests back: the ring must hold finished traces
// whose stages decompose the request into admission, batch queue,
// predict, service, and write.
func TestDebugRequestsExposesStageBreakdown(t *testing.T) {
	_, base := testServer(t, Config{BatchWindow: 5 * time.Millisecond, BatchMax: 8})
	_, _, queries := trainModel(t, 11, 24, 256)

	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/predict",
				map[string]any{"model": "alpha", "input": queries[i%len(queries)]})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(base + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests status %d: %s", resp.StatusCode, raw)
	}
	var snap obs.TraceRingSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("/debug/requests body %q: %v", raw, err)
	}
	if snap.Recorded < n {
		t.Fatalf("ring recorded %d traces, want ≥ %d", snap.Recorded, n)
	}
	var predictTrace *obs.ReqTraceSnapshot
	for i := range snap.Slowest {
		if snap.Slowest[i].Endpoint == "predict" {
			predictTrace = &snap.Slowest[i]
			break
		}
	}
	if predictTrace == nil {
		t.Fatalf("no predict trace retained: %s", raw)
	}
	if predictTrace.ID == "" || predictTrace.TotalMS <= 0 {
		t.Fatalf("malformed trace: %+v", predictTrace)
	}
	want := []string{"admitted", "batch_queue", "predict", "service", "write"}
	if len(predictTrace.Stages) != len(want) {
		t.Fatalf("predict trace stages %+v, want %v", predictTrace.Stages, want)
	}
	end := 0.0
	for i, s := range predictTrace.Stages {
		if s.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, want[i])
		}
		if s.DurationMS < 0 || s.EndMS < end {
			t.Errorf("stage %d not monotone: %+v after end %.3f", i, s, end)
		}
		end = s.EndMS
	}
	// Slowest-first ordering.
	for i := 1; i < len(snap.Slowest); i++ {
		if snap.Slowest[i].TotalMS > snap.Slowest[i-1].TotalMS {
			t.Fatalf("ring not sorted slowest-first at %d: %v then %v",
				i, snap.Slowest[i-1].TotalMS, snap.Slowest[i].TotalMS)
		}
	}
}

// TestBatchQueueVsServiceMetrics is the micro-batching latency-cost
// proof: the queue-wait histogram advances once per request (enqueue →
// batch-fn start) while the service-time histogram advances once per
// flushed batch, so the two deltas separate what batching charges a
// request from what the batch itself cost.
func TestBatchQueueVsServiceMetrics(t *testing.T) {
	_, base := testServer(t, Config{BatchWindow: 50 * time.Millisecond, BatchMax: 16, MaxInFlight: 64})
	_, _, queries := trainModel(t, 11, 24, 256)

	queueBefore := obs.GetHistogram("serve.batch.queue_seconds", nil).Count()
	serviceBefore := obs.GetHistogram("serve.batch.service_seconds", nil).Count()

	const n = 10
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/predict",
				map[string]any{"model": "alpha", "input": queries[i%len(queries)]})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	queued := obs.GetHistogram("serve.batch.queue_seconds", nil).Count() - queueBefore
	served := obs.GetHistogram("serve.batch.service_seconds", nil).Count() - serviceBefore
	if queued != n {
		t.Fatalf("queue-wait observations %d, want one per request (%d)", queued, n)
	}
	if served < 1 || served > queued {
		t.Fatalf("service-time observations %d, want in [1, %d]", served, queued)
	}
	if served == queued {
		t.Logf("note: no cross-request coalescing this run (%d batches for %d rows)", served, queued)
	}
}
