package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"prid/internal/obs"
	"prid/internal/serve"
	"prid/internal/serve/wire"
)

// fleet starts n backends and a gateway over them.
func fleet(t *testing.T, n int, tweak func(*Config)) ([]*serve.Server, *Gateway, string) {
	t.Helper()
	backends := make([]*serve.Server, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = startBackend(t, "127.0.0.1:0")
		urls[i] = "http://" + backends[i].Addr()
	}
	t.Cleanup(func() {
		for _, b := range backends {
			stopBackend(t, b)
		}
	})
	cfg := fastProbeConfig(urls)
	if tweak != nil {
		tweak(&cfg)
	}
	g, base := startGateway(t, cfg)
	return backends, g, base
}

// TestGatewayPredictBitIdentical: a prediction through the gateway — any
// replica answering — equals the in-process model's answer exactly.
func TestGatewayPredictBitIdentical(t *testing.T) {
	_, _, base := fleet(t, 3, nil)
	model, _, queries := trainModel(t, 11, 24, 256)
	for _, q := range queries {
		want, err := model.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out wire.PredictResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Predictions) != 1 || out.Predictions[0] != want {
			t.Fatalf("gateway predictions %v, want [%d]", out.Predictions, want)
		}
	}
}

// TestGatewayModelsAggregate: /v1/models is the union across the fleet —
// a model present on one backend only still shows up once, merged with
// the replicated set.
func TestGatewayModelsAggregate(t *testing.T) {
	backends, _, base := fleet(t, 3, nil)
	extra, _, _ := trainModel(t, 31, 8, 64)
	backends[2].Registry().Register("extra", "", extra)

	resp, body := postGet(t, base+"/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out wire.ModelsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(out.Models))
	for _, m := range out.Models {
		names = append(names, m.Name)
	}
	got := strings.Join(names, ",")
	if got != "alpha,beta,extra" {
		t.Fatalf("aggregated models %q, want alpha,beta,extra", got)
	}
}

// TestGatewayRelaysClientErrors: a definitive backend 4xx (unknown
// model, width mismatch) comes back with the backend's status and
// message — no failover, no translation. Requests the gateway itself can
// refuse (malformed body) get the same envelope.
func TestGatewayRelaysClientErrors(t *testing.T) {
	_, _, base := fleet(t, 3, nil)

	resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "nope", "input": []float64{1, 2}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `unknown model \"nope\"`) && !strings.Contains(string(body), "unknown model") {
		t.Fatalf("unknown model: body %s", body)
	}

	row := make([]float64, 7) // alpha expects 24 features
	resp, body = postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": row})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("width mismatch: status %d: %s", resp.StatusCode, body)
	}

	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", r2.StatusCode)
	}

	var env wire.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.RequestID == "" {
		t.Fatal("error envelope missing request_id")
	}
}

// TestGatewayEjectRejoin drives the full membership cycle: kill a
// backend, watch the prober eject it (ring shrinks, /gatewayz records
// the transition), keep serving correct answers throughout, revive it on
// the same address, watch it rejoin.
func TestGatewayEjectRejoin(t *testing.T) {
	backends, g, base := fleet(t, 3, nil)
	model, _, queries := trainModel(t, 11, 24, 256)
	want, err := model.Predict(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		t.Helper()
		resp, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": queries[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", context, resp.StatusCode, body)
		}
		var out wire.PredictResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Predictions[0] != want {
			t.Fatalf("%s: prediction %d, want %d", context, out.Predictions[0], want)
		}
	}

	check("all backends up")
	victimAddr := backends[1].Addr()
	victimURL := "http://" + victimAddr
	stopBackend(t, backends[1])

	// Even before the prober notices, synchronous failover must hide the
	// death: the very next request still succeeds.
	check("immediately after kill")

	gz := waitHealthy(t, base, 2)
	if len(gz.RingMembers) != 2 {
		t.Fatalf("ring members %v after ejection, want 2", gz.RingMembers)
	}
	for _, m := range gz.RingMembers {
		if m == victimURL {
			t.Fatalf("ejected backend %s still a ring member", victimURL)
		}
	}
	sawDown := false
	for _, ev := range gz.Events {
		if ev.Backend == victimURL && !ev.Up {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("no down event for %s in %+v", victimURL, gz.Events)
	}
	check("after ejection")

	// Revive on the same address; the prober must rejoin it.
	backends[1] = startBackend(t, victimAddr)
	gz = waitHealthy(t, base, 3)
	if len(gz.RingMembers) != 3 {
		t.Fatalf("ring members %v after rejoin, want 3", gz.RingMembers)
	}
	sawUp := false
	for _, ev := range gz.Events {
		if ev.Backend == victimURL && ev.Up && ev.Reason == "readyz ok" {
			sawUp = true
		}
	}
	if !sawUp {
		t.Fatalf("no up event for %s in %+v", victimURL, gz.Events)
	}
	check("after rejoin")

	if g.healthyN.Load() != 3 {
		t.Fatalf("healthyN = %d, want 3", g.healthyN.Load())
	}
}

// TestGatewayAllBackendsDown: with the whole fleet dead the gateway
// reports not-ready and answers 502/503, never hangs.
func TestGatewayAllBackendsDown(t *testing.T) {
	backends, _, base := fleet(t, 2, nil)
	for _, b := range backends {
		stopBackend(t, b)
	}
	waitHealthy(t, base, 0)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet: status %d, want 503", resp.StatusCode)
	}

	r2, body := postJSON(t, base+"/v1/predict", map[string]any{"model": "alpha", "input": make([]float64, 24)})
	if r2.StatusCode != http.StatusBadGateway && r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with dead fleet: status %d (%s), want 502/503", r2.StatusCode, body)
	}
}

// TestGatewayQuorum: identical replicas reach quorum and answer; a fleet
// where every replica diverges (three same-named models trained with
// different seeds) is a 502 quorum mismatch, not a silently wrong
// answer.
func TestGatewayQuorum(t *testing.T) {
	backends, _, base := fleet(t, 3, func(c *Config) {
		c.Quorum = true
		c.Replicas = 3
	})
	// Identical everywhere: quorum holds.
	_, _, queries := trainModel(t, 11, 24, 256)
	resp, body := postJSON(t, base+"/v1/similarities", map[string]any{"model": "alpha", "input": queries[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quorum on identical fleet: status %d: %s", resp.StatusCode, body)
	}

	// Divergent: same model name, three different trainings.
	for i, b := range backends {
		m, _, _ := trainModel(t, uint64(100+i), 24, 256)
		b.Registry().Register("gamma", "", m)
	}
	resp, body = postJSON(t, base+"/v1/similarities", map[string]any{"model": "gamma", "input": queries[0]})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("quorum on divergent fleet: status %d (%s), want 502", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quorum mismatch") {
		t.Fatalf("divergent fleet body %s, want quorum mismatch", body)
	}
}

// TestGatewayRequestIDPropagation: the inbound X-Request-ID is echoed by
// the gateway and visible in a backend's /debug/requests ring — the
// cross-hop correlation the client request-ID propagation buys.
func TestGatewayRequestIDPropagation(t *testing.T) {
	backends, _, base := fleet(t, 1, nil)
	const reqID = "gwtest-0001"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict",
		strings.NewReader(`{"model":"beta","input":[`+strings.Repeat("0,", 15)+`0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("gateway echoed request ID %q, want %q", got, reqID)
	}

	// The same ID must appear in the backend's slow-trace ring, and in
	// the gateway's with the gateway's own stages.
	stages := func(base string) []string {
		deadline := time.Now().Add(2 * time.Second)
		for {
			r2, err := http.Get(base + "/debug/requests")
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.TraceRingSnapshot
			err = json.NewDecoder(r2.Body).Decode(&snap)
			r2.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range snap.Slowest {
				if tr.ID == reqID {
					var names []string
					for _, st := range tr.Stages {
						names = append(names, st.Name)
					}
					return names
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("request ID %q never appeared in %s/debug/requests", reqID, base)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	stages("http://" + backends[0].Addr())
	if got := strings.Join(stages(base), ","); got != "admitted,proxy,write" {
		t.Fatalf("gateway trace stages %s, want admitted,proxy,write", got)
	}
}

// TestGatewayDuplicateBackends: configuration errors fail construction.
func TestGatewayDuplicateBackends(t *testing.T) {
	if _, err := New(Config{Backends: []string{"http://x:1", "http://x:1"}}); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"not-a-url"}}); err == nil {
		t.Fatal("relative backend URL accepted")
	}
}

// postGet is a GET with the postJSON return shape.
func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGatewayShutdownWithoutServing: Shutdown returns, within its
// context, on a gateway whose Start failed or never ran — no prober is
// running for it to wait on.
func TestGatewayShutdownWithoutServing(t *testing.T) {
	for _, start := range []bool{true, false} {
		g, err := New(Config{Addr: "127.0.0.1:-1", Backends: []string{"http://127.0.0.1:1"},
			ProbeInterval: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if start {
			if err := g.Start(); err == nil {
				t.Fatal("Start on an invalid address succeeded")
			}
		}
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			done <- g.Shutdown(ctx)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Shutdown (Start called: %v): %v", start, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Shutdown (Start called: %v) still blocked after 2s", start)
		}
	}
}
