package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"prid/internal/faultinject"
	"prid/internal/obs"
	"prid/internal/serve/engine"
	"prid/internal/serve/wire"
)

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth, capacity, want int
	}{
		{0, 64, 1},   // idle: come right back
		{1, 64, 1},   // near-idle
		{16, 64, 2},  // quarter full
		{32, 64, 4},  // half full
		{48, 64, 6},  // three quarters
		{64, 64, 8},  // saturated: maximum push-out
		{100, 64, 8}, // over-reported depth still capped
		{1, 1, 8},    // tiny server saturates immediately
		{5, 0, 1},    // degenerate capacity guarded
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.capacity); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d) = %d, want %d", c.depth, c.capacity, got, c.want)
		}
	}
}

// TestAdaptiveRetryAfterSaturated pins the satellite bugfix: the 503 on
// a saturated semaphore must carry the depth-derived Retry-After, not
// the old hardcoded "1".
func TestAdaptiveRetryAfterSaturated(t *testing.T) {
	s, base := testServer(t, Config{MaxInFlight: 2})
	// Saturate the semaphore directly — both slots taken, no handler
	// running, so the rejection path is the only thing under test.
	s.edge.sem <- struct{}{}
	s.edge.sem <- struct{}{}
	defer func() { <-s.edge.sem; <-s.edge.sem }()

	resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": []float64{0.1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "8" {
		t.Fatalf("Retry-After %q at full depth 2/2, want \"8\"", got)
	}
}

func TestPanicRecoveryKeepsServing(t *testing.T) {
	inj := faultinject.New(5, faultinject.Schedule{
		"predict": {PanicRate: 1},
	})
	s, base := testServer(t, Config{Injector: inj})
	_, _, queries := trainModel(t, 11, 24, 256)
	panicsBefore := obs.GetCounter("serve.panics").Value()

	// Every predict panics inside the handler chain; the recovery
	// middleware must turn that into a JSON 500.
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[0]})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking predict: status %d (%s), want 500", resp.StatusCode, body)
		}
		var e wire.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "panic") {
			t.Fatalf("panicking predict body %q is not the panic error envelope", body)
		}
	}
	if got := obs.GetCounter("serve.panics").Value() - panicsBefore; got != 3 {
		t.Fatalf("serve.panics advanced by %d, want 3", got)
	}

	// The server (and its goroutines) survived: an un-faulted endpoint
	// still answers on the same process.
	resp, body := postJSON(t, base+"/v1/similarities", map[string]any{"model": "alpha", "input": queries[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similarities after panics: status %d (%s), want 200", resp.StatusCode, body)
	}
	if s.Registry().Len() != 2 {
		t.Fatalf("registry lost entries across panics: %d", s.Registry().Len())
	}
}

func TestInjectedHangResolvesAtRequestTimeout(t *testing.T) {
	inj := faultinject.New(5, faultinject.Schedule{"predict": {HangRate: 1}})
	_, base := testServer(t, Config{Injector: inj, RequestTimeout: 100 * time.Millisecond})
	_, _, queries := trainModel(t, 11, 24, 256)
	start := time.Now()
	resp, _ := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("hung request status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("hang resolved after %v, want ≈ the 100ms request timeout", elapsed)
	}
}

func TestReadyzLifecycle(t *testing.T) {
	// Not ready before any model is loaded — but alive.
	s := NewServer(Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // double shutdown tolerated
	})
	status := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz with empty registry: %d, want 200 (liveness is not readiness)", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with empty registry: %d, want 503", got)
	}

	m, _, _ := trainModel(t, 11, 24, 256)
	s.Registry().Register("alpha", "", m)
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz with a model loaded: %d, want 200", got)
	}

	// Draining flips readiness off while the process stays live.
	s.edge.draining.Store(true)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200", got)
	}
}

// TestTieredLoadShedding pins the degradation order: at half capacity
// the audit endpoint sheds, at three quarters the attack view follows,
// and /v1/predict keeps being admitted until the semaphore itself is
// full.
func TestTieredLoadShedding(t *testing.T) {
	s, base := testServer(t, Config{MaxInFlight: 4, BatchWindow: time.Millisecond})
	_, train, queries := trainModel(t, 11, 24, 256)

	post := func(path string, body map[string]any) int {
		resp, _ := postJSON(t, base+path, body)
		return resp.StatusCode
	}
	auditBody := map[string]any{"model": "alpha", "train": train, "queries": queries[:1]}
	reconBody := map[string]any{"model": "alpha", "query": queries[0]}
	predictBody := map[string]any{"model": "alpha", "input": queries[0]}

	// Depth 2 of 4: audit sheds, reconstruct and predict still run.
	s.edge.sem <- struct{}{}
	s.edge.sem <- struct{}{}
	shedBefore := obs.GetCounter("serve.audit.shed").Value()
	if got := post("/v1/audit/leakage", auditBody); got != http.StatusServiceUnavailable {
		t.Fatalf("audit at depth 2/4: status %d, want 503 shed", got)
	}
	if got := obs.GetCounter("serve.audit.shed").Value() - shedBefore; got != 1 {
		t.Fatalf("serve.audit.shed advanced by %d, want 1", got)
	}
	if got := post("/v1/reconstruct", reconBody); got != http.StatusOK {
		t.Fatalf("reconstruct at depth 2/4: status %d, want 200", got)
	}
	if got := post("/v1/predict", predictBody); got != http.StatusOK {
		t.Fatalf("predict at depth 2/4: status %d, want 200", got)
	}

	// Depth 3 of 4: reconstruct sheds too; predict still admitted.
	s.edge.sem <- struct{}{}
	if got := post("/v1/reconstruct", reconBody); got != http.StatusServiceUnavailable {
		t.Fatalf("reconstruct at depth 3/4: status %d, want 503 shed", got)
	}
	if got := post("/v1/predict", predictBody); got != http.StatusOK {
		t.Fatalf("predict at depth 3/4: status %d, want 200", got)
	}

	// Depth 4 of 4: even predict is turned away — by capacity, with the
	// adaptive Retry-After.
	s.edge.sem <- struct{}{}
	resp, _ := postJSON(t, base+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "8" {
		t.Fatalf("predict at depth 4/4: status %d Retry-After %q, want 503 + 8",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	for i := 0; i < 4; i++ {
		<-s.edge.sem
	}
}

func TestCheckFiniteFieldErrors(t *testing.T) {
	if err := engine.CheckFiniteRows([][]float64{{0, 1}, {2, math.NaN()}}, "inputs"); err == nil ||
		!strings.Contains(err.Error(), "inputs[1][1]") {
		t.Fatalf("NaN error %v does not name inputs[1][1]", err)
	}
	if err := engine.CheckFiniteRow([]float64{0, math.Inf(-1)}, "input"); err == nil ||
		!strings.Contains(err.Error(), "input[1]") {
		t.Fatalf("-Inf error %v does not name input[1]", err)
	}
	if err := engine.CheckFiniteRows([][]float64{{0, 1}, {2, 3}}, "inputs"); err != nil {
		t.Fatalf("finite rows rejected: %v", err)
	}
}
