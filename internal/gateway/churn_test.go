package gateway

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prid/internal/serve/wire"
)

// TestGatewayMembershipChurnUnderTraffic is the concurrency gate `make
// race` leans on: workers hammer the gateway while a churner repeatedly
// kills and revives a backend on the same address. The contract under
// churn is zero dropped requests — every response is a 200 with the
// bit-identical prediction — while the ring membership actually moves
// (transitions recorded on /gatewayz), exercising the prober, the ring
// rewrites, the synchronous failover path, and the per-backend atomics
// against each other.
func TestGatewayMembershipChurnUnderTraffic(t *testing.T) {
	backends, _, base := fleet(t, 3, nil)
	model, _, queries := trainModel(t, 11, 24, 256)
	want := make([]int, len(queries))
	for i, q := range queries {
		w, err := model.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	// Warm-up: route one predict so /gatewayz reveals which backend is the
	// ring primary for "alpha". Churning that backend (rather than a fixed
	// index that may own no keys for this run's port layout) guarantees the
	// kill crosses the hot path: eject, failover, rejoin, re-adoption.
	if resp, body := postJSON(t, base+"/v1/predict",
		map[string]any{"model": "alpha", "input": queries[0]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up predict: status %d: %s", resp.StatusCode, body)
	}
	victimIdx := -1
	for i, b := range gatewayz(t, base).Backends {
		if b.Requests > 0 {
			victimIdx = i
			break
		}
	}
	if victimIdx == -1 {
		t.Fatal("warm-up request not attributed to any backend")
	}

	const workers = 6
	stop := make(chan struct{})
	var sent, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % len(queries)
				resp, body := postJSON(t, base+"/v1/predict",
					map[string]any{"model": "alpha", "input": queries[qi]})
				sent.Add(1)
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
					t.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
				var out wire.PredictResponse
				if err := json.Unmarshal(body, &out); err != nil {
					failed.Add(1)
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if out.Predictions[0] != want[qi] {
					failed.Add(1)
					t.Errorf("worker %d: prediction %d, want %d", w, out.Predictions[0], want[qi])
					return
				}
			}
		}(w)
	}

	// Churn: kill the primary, let the prober eject it, revive it on the
	// same address, let it rejoin. Twice.
	victimAddr := backends[victimIdx].Addr()
	for round := 0; round < 2; round++ {
		stopBackend(t, backends[victimIdx])
		waitHealthy(t, base, 2)
		backends[victimIdx] = startBackend(t, victimAddr)
		waitHealthy(t, base, 3)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d/%d requests failed under churn", failed.Load(), sent.Load())
	}
	if sent.Load() == 0 {
		t.Fatal("no traffic flowed during churn")
	}
	gz := gatewayz(t, base)
	victim := gz.Backends[victimIdx]
	if victim.Transitions < 4 {
		t.Fatalf("victim backend recorded %d transitions, want >= 4 (2 eject/rejoin rounds)", victim.Transitions)
	}
	if victim.Requests == 0 {
		t.Fatal("victim backend never served a routed request")
	}
	t.Logf("churn run: %d requests, victim transitions=%d requests=%d failures=%d shed=%d",
		sent.Load(), victim.Transitions, victim.Requests, victim.Failures, victim.Shed)
}
