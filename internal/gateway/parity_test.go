package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"testing"
)

// requestIDField matches the error envelope's request_id, the one
// field whose value legitimately differs between two requests.
var requestIDField = regexp.MustCompile(`"request_id":"[^"]*"`)

// wireAnswer is what a /v1 client can observe of one response.
type wireAnswer struct {
	status      int
	contentType string
	allow       string
	body        string
}

func wireCall(t *testing.T, method, url, body string) wireAnswer {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return wireAnswer{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		allow:       resp.Header.Get("Allow"),
		body:        requestIDField.ReplaceAllString(string(raw), `"request_id":"-"`),
	}
}

func jsonBody(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestWireParityWithBackend pins the gateway as a drop-in /v1 target:
// with one backend behind it, every request below gets the same status,
// Content-Type, Allow header and body bytes (request IDs aside) from the
// gateway as from the backend directly. Reload is the one designed
// difference: the gateway also reports how many backends applied it.
func TestWireParityWithBackend(t *testing.T) {
	backend := startBackend(t, "127.0.0.1:0")
	t.Cleanup(func() { stopBackend(t, backend) })
	direct := "http://" + backend.Addr()
	_, via := startGateway(t, fastProbeConfig([]string{direct}))

	_, train, queries := trainModel(t, 11, 24, 256)
	post := http.MethodPost
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"models", http.MethodGet, "/v1/models", "", http.StatusOK},
		{"predict input", post, "/v1/predict", jsonBody(t, map[string]any{"model": "alpha", "input": queries[0]}), http.StatusOK},
		{"predict inputs", post, "/v1/predict", jsonBody(t, map[string]any{"model": "alpha", "inputs": queries}), http.StatusOK},
		{"similarities", post, "/v1/similarities", jsonBody(t, map[string]any{"model": "alpha", "input": queries[1]}), http.StatusOK},
		{"reconstruct", post, "/v1/reconstruct", jsonBody(t, map[string]any{"model": "alpha", "query": queries[2]}), http.StatusOK},
		{"audit", post, "/v1/audit/leakage", jsonBody(t, map[string]any{"model": "alpha", "train": train, "queries": queries[:2]}), http.StatusOK},
		{"malformed json", post, "/v1/predict", `{"model": "alpha", "input": [0.1,`, http.StatusBadRequest},
		{"unknown field", post, "/v1/predict", `{"model": "alpha", "inputz": [[0.1]]}`, http.StatusBadRequest},
		{"both input forms", post, "/v1/predict", `{"model": "alpha", "input": [0.1], "inputs": [[0.1]]}`, http.StatusBadRequest},
		{"no input form", post, "/v1/predict", `{"model": "alpha"}`, http.StatusBadRequest},
		{"missing model", post, "/v1/predict", `{"input": [0.1]}`, http.StatusBadRequest},
		{"unknown model", post, "/v1/predict", `{"model": "nope", "input": [0.1]}`, http.StatusNotFound},
		{"width mismatch", post, "/v1/predict", `{"model": "alpha", "input": [0.1, 0.2]}`, http.StatusBadRequest},
		{"predict wrong method", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed},
		{"models wrong method", post, "/v1/models", `{}`, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		want := wireCall(t, c.method, direct+c.path, c.body)
		if want.status != c.status {
			t.Errorf("%s: backend status %d, want %d (%s)", c.name, want.status, c.status, want.body)
		}
		got := wireCall(t, c.method, via+c.path, c.body)
		if got != want {
			t.Errorf("%s: gateway answered\n  %+v\nbackend answered\n  %+v", c.name, got, want)
		}
	}

	want := wireAnswer{status: http.StatusOK, contentType: "application/json"}
	wantDirect, wantVia := want, want
	wantDirect.body = "{\"reloaded\":0}\n"
	wantVia.body = "{\"reloaded\":0,\"backends\":1}\n"
	if got := wireCall(t, post, direct+"/v1/models/reload", ""); got != wantDirect {
		t.Errorf("backend reload: %+v, want %+v", got, wantDirect)
	}
	if got := wireCall(t, post, via+"/v1/models/reload", ""); got != wantVia {
		t.Errorf("gateway reload: %+v, want %+v", got, wantVia)
	}
}
