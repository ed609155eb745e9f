package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"prid/internal/obs"
	"prid/internal/serve/engine"
	"prid/internal/serve/wire"
)

// testServer starts a Server on a loopback port with two registered
// models and returns it plus its base URL. Cleanup shuts it down.
func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := NewServer(cfg)
	alpha, _, _ := trainModel(t, 11, 24, 256)
	beta, _, _ := trainModel(t, 12, 16, 128)
	s.Registry().Register("alpha", "", alpha)
	s.Registry().Register("beta", "", beta)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // double shutdown in some tests
	})
	return s, "http://" + s.Addr()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestPredictRoundTrip(t *testing.T) {
	s, base := testServer(t, Config{BatchWindow: time.Millisecond})
	e, _ := s.Registry().Get("alpha")
	_, _, queries := trainModel(t, 11, 24, 256)

	// Single-input form must agree with the in-process model.
	want, err := e.Model().Predict(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Predictions) != 1 || got.Predictions[0] != want {
		t.Fatalf("predictions %v, want [%d]", got.Predictions, want)
	}

	// Multi-input form, element-wise.
	wantBatch, err := e.Model().PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "inputs": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Predictions) != len(wantBatch) {
		t.Fatalf("%d predictions, want %d", len(got.Predictions), len(wantBatch))
	}
	for i := range wantBatch {
		if got.Predictions[i] != wantBatch[i] {
			t.Fatalf("prediction %d = %d, want %d", i, got.Predictions[i], wantBatch[i])
		}
	}
}

func TestPredictBadRequests(t *testing.T) {
	_, base := testServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"model": "alpha", "input": [0.1,`, http.StatusBadRequest},
		{"unknown field", `{"model": "alpha", "inputz": [[0.1]]}`, http.StatusBadRequest},
		{"unknown model", `{"model": "nope", "input": [0.1]}`, http.StatusNotFound},
		{"missing model", `{"input": [0.1]}`, http.StatusBadRequest},
		{"no inputs", `{"model": "alpha"}`, http.StatusBadRequest},
		{"both input forms", `{"model": "alpha", "input": [0.1], "inputs": [[0.1]]}`, http.StatusBadRequest},
		{"ragged width", `{"model": "alpha", "input": [0.1, 0.2]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		if jerr := json.NewDecoder(resp.Body).Decode(&e); jerr != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing (%v)", c.name, jerr)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	// Wrong method.
	resp, err := http.Get(base + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d, want 405", resp.StatusCode)
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, base := testServer(t, Config{})
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got wire.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Models) != 2 {
		t.Fatalf("%d models, want 2", len(got.Models))
	}
	if got.Models[0].Name != "alpha" || got.Models[0].Features != 24 || got.Models[0].Dimension != 256 {
		t.Fatalf("alpha entry %+v wrong", got.Models[0])
	}
	if got.Models[1].Name != "beta" || got.Models[1].Features != 16 {
		t.Fatalf("beta entry %+v wrong", got.Models[1])
	}
}

func TestSimilaritiesEndpoint(t *testing.T) {
	s, base := testServer(t, Config{})
	e, _ := s.Registry().Get("alpha")
	_, _, queries := trainModel(t, 11, 24, 256)
	want, err := e.Model().Similarities(queries[1])
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, base+"/v1/similarities", map[string]any{"model": "alpha", "input": queries[1]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.SimilaritiesResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Similarities) != len(want) {
		t.Fatalf("%d similarities, want %d", len(got.Similarities), len(want))
	}
	for i := range want {
		if got.Similarities[i] != want[i] {
			t.Fatalf("similarity %d = %v, want %v", i, got.Similarities[i], want[i])
		}
	}
	if got.Class < 0 || got.Class >= 3 {
		t.Fatalf("class %d out of range", got.Class)
	}
}

func TestReconstructAndAuditEndpoints(t *testing.T) {
	s, base := testServer(t, Config{})
	e, _ := s.Registry().Get("alpha")
	_, train, queries := trainModel(t, 11, 24, 256)

	resp, body := postJSON(t, base+"/v1/reconstruct", map[string]any{"model": "alpha", "query": queries[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconstruct status %d: %s", resp.StatusCode, body)
	}
	var rec wire.ReconstructResponse
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 24 {
		t.Fatalf("reconstruction has %d features, want 24", len(rec.Data))
	}
	if rec.Class < 0 || rec.Class >= 3 || rec.Similarity < -1 || rec.Similarity > 1 {
		t.Fatalf("implausible reconstruction class=%d sim=%v", rec.Class, rec.Similarity)
	}

	// The served audit must agree exactly with the in-process audit —
	// both are deterministic functions of (model, train, queries).
	want, err := e.Model().AuditLeakage(train, queries[:2])
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, base+"/v1/audit/leakage", map[string]any{
		"model": "alpha", "train": train, "queries": queries[:2],
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit status %d: %s", resp.StatusCode, body)
	}
	var audit wire.AuditResponse
	if err := json.Unmarshal(body, &audit); err != nil {
		t.Fatal(err)
	}
	if audit.Leakage != want {
		t.Fatalf("served leakage %v != in-process %v", audit.Leakage, want)
	}
	if audit.Leakage < 0 || audit.Leakage > 1 {
		t.Fatalf("leakage %v outside [0,1]", audit.Leakage)
	}
	if audit.Queries != 2 {
		t.Fatalf("audited %d queries, want 2", audit.Queries)
	}

	// Audit without train data is a 400, not a crash.
	resp, _ = postJSON(t, base+"/v1/audit/leakage", map[string]any{"model": "alpha", "queries": queries[:1]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-train audit status %d, want 400", resp.StatusCode)
	}
}

// TestReconstructAndAuditRejectNonFinite pins the non-finite input guard
// on the attack-facing endpoints. Standard JSON cannot spell NaN/Inf, so
// the boundary has two layers and both are asserted: bodies that try to
// smuggle non-finite numbers through the wire (literal NaN, overflow
// exponents) die at decode with a 400 envelope, and the handler-side
// checkFinite guard — the layer that protects any future non-JSON
// ingestion path — rejects the exact request fields the handlers validate
// ("query", "train", "queries") with field-level messages.
func TestReconstructAndAuditRejectNonFinite(t *testing.T) {
	_, base := testServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"reconstruct literal NaN", "/v1/reconstruct", `{"model": "alpha", "query": [NaN]}`},
		{"reconstruct overflow Inf", "/v1/reconstruct", `{"model": "alpha", "query": [1e999]}`},
		{"audit NaN in train", "/v1/audit/leakage", `{"model": "alpha", "train": [[NaN]], "queries": [[0.1]]}`},
		{"audit -Inf in queries", "/v1/audit/leakage", `{"model": "alpha", "train": [[0.1]], "queries": [[-1e999]]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(base+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		jerr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if jerr != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing (%v)", c.name, jerr)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}

	// The guard the handlers wire in, with the handlers' field names.
	rq := wire.ReconstructRequest{Model: "alpha", Query: []float64{0.1, math.NaN()}}
	if err := engine.CheckFiniteRow(rq.Query, "query"); err == nil || !strings.Contains(err.Error(), "query[1]") {
		t.Fatalf("reconstruct NaN guard error %v does not name query[1]", err)
	}
	aq := wire.AuditRequest{
		Model:   "alpha",
		Train:   [][]float64{{0.1}, {math.Inf(1)}},
		Queries: [][]float64{{math.Inf(-1)}},
	}
	if err := engine.CheckFiniteRows(aq.Train, "train"); err == nil || !strings.Contains(err.Error(), "train[1][0]") {
		t.Fatalf("audit +Inf guard error %v does not name train[1][0]", err)
	}
	if err := engine.CheckFiniteRows(aq.Queries, "queries"); err == nil || !strings.Contains(err.Error(), "queries[0][0]") {
		t.Fatalf("audit -Inf guard error %v does not name queries[0][0]", err)
	}
}

// TestMicroBatchingUnderConcurrentLoad proves cross-request batching: N
// concurrent single-row predicts inside one window must coalesce, so the
// mean rows-per-batch over the test's batches is observably > 1.
func TestMicroBatchingUnderConcurrentLoad(t *testing.T) {
	_, base := testServer(t, Config{BatchWindow: 50 * time.Millisecond, BatchMax: 16, MaxInFlight: 64})
	_, _, queries := trainModel(t, 11, 24, 256)

	rowsBefore := obs.GetCounter("serve.batch.rows").Value()
	batchesBefore := obs.GetHistogram("serve.batch.size", nil).Count()

	const n = 12
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

	rows := obs.GetCounter("serve.batch.rows").Value() - rowsBefore
	batches := obs.GetHistogram("serve.batch.size", nil).Count() - batchesBefore
	if rows != n {
		t.Fatalf("batcher processed %d rows, want %d", rows, n)
	}
	if batches >= rows {
		t.Fatalf("%d batches for %d rows — no cross-request batching happened", batches, rows)
	}
	t.Logf("micro-batching: %d rows in %d batches (mean %.1f rows/batch)",
		rows, batches, float64(rows)/float64(batches))
}

// TestConcurrencyLimitRejects pins the admission control: with one slot,
// a request stuck in the batch window holds it, and the next request is
// turned away with 503 + Retry-After rather than queued.
func TestConcurrencyLimitRejects(t *testing.T) {
	_, base := testServer(t, Config{BatchWindow: 400 * time.Millisecond, BatchMax: 64, MaxInFlight: 1})
	_, _, queries := trainModel(t, 11, 24, 256)

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[0]})
		first <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the first request occupy the slot
	resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[1]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e wire.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("503 body %q is not the error envelope", body)
	}
	if got := <-first; got != http.StatusOK {
		t.Fatalf("first request status %d, want 200", got)
	}
}

// TestGracefulShutdownDrains pins the drain behaviour: a request waiting
// in the batch window when Shutdown is called must still complete with
// 200; the server then refuses new work.
func TestGracefulShutdownDrains(t *testing.T) {
	s, base := testServer(t, Config{BatchWindow: 300 * time.Millisecond, BatchMax: 64})
	_, _, queries := trainModel(t, 11, 24, 256)

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[0]})
		inflight <- result{resp.StatusCode, body}
	}()
	time.Sleep(75 * time.Millisecond) // request is now inside the batch window

	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight request status %d (%s), want 200", got.status, got.body)
	}
	var pr wire.PredictResponse
	if err := json.Unmarshal(got.body, &pr); err != nil || len(pr.Predictions) != 1 {
		t.Fatalf("in-flight request body %q not a prediction", got.body)
	}
	if _, err := http.Get(base + "/v1/models"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func TestHealthAndDebugEndpoints(t *testing.T) {
	_, base := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/debug/vars", "/debug/pprof/cmdline"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	// The expvar snapshot must include the serve metrics.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("serve.predict.requests")) {
		t.Fatal("/debug/vars does not expose serve metrics")
	}
}

// TestLargeBatchBypass sends a request already at batch size: it must
// run through the direct PredictBatch path and still match per-row
// predictions.
func TestLargeBatchBypass(t *testing.T) {
	s, base := testServer(t, Config{BatchMax: 2})
	e, _ := s.Registry().Get("alpha")
	_, _, queries := trainModel(t, 11, 24, 256)
	want, err := e.Model().PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "inputs": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Predictions[i] != want[i] {
			t.Fatalf("prediction %d = %d, want %d", i, got.Predictions[i], want[i])
		}
	}
}

func TestServeReloadEndpoint(t *testing.T) {
	s, base := testServer(t, Config{})
	dir := t.TempDir()
	path := dir + "/gamma.prid"
	m1, _, _ := trainModel(t, 21, 24, 256)
	if err := m1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().LoadFile("gamma", path); err != nil {
		t.Fatal(err)
	}
	m2, _, _ := trainModel(t, 22, 24, 512)
	if err := m2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, base+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var rr wire.ReloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Reloaded != 1 {
		t.Fatalf("reloaded %d, want 1 (only gamma is file-backed)", rr.Reloaded)
	}
	e, _ := s.Registry().Get("gamma")
	if e.Info().Dimension != 512 {
		t.Fatalf("gamma dimension %d after reload, want 512", e.Info().Dimension)
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestServeLoopFailureIsCounted pins the accept-loop failure path: when
// the listener dies underneath the server (not via Shutdown), the exit
// must be recorded in serve.loop_failures instead of vanishing — a
// process that is up but silently not serving is the outage mode the
// counter exists for.
func TestServeLoopFailureIsCounted(t *testing.T) {
	before := obs.GetCounter("serve.loop_failures").Value()
	srv := NewServer(Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the listener directly: Serve returns net.ErrClosed, which is
	// not the http.ErrServerClosed a requested shutdown produces.
	if err := srv.edge.ln.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for obs.GetCounter("serve.loop_failures").Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("serve.loop_failures not incremented after listener death")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
