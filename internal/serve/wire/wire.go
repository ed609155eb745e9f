// Package wire declares the JSON schema of the PRID /v1 serving API
// once, for every side of it: internal/serve answers with these types
// (for a local engine and for internal/gateway's fleet alike), and
// internal/serve/client sends and decodes them. A field added here is
// added to both servers and the client at the same time.
//
// The package is a leaf: it imports only the standard library.
package wire

import "time"

// ModelInfo is one registry entry as GET /v1/models lists it.
// Store-backed entries additionally carry the served generation and its
// payload checksum — the provenance a fleet operator (or the crash-smoke
// gate) reads to verify which snapshot a backend actually serves after a
// crash. Mode is "binary" for the bit-packed Hamming path and empty for
// the float cosine path.
type ModelInfo struct {
	Name       string    `json:"name"`
	Path       string    `json:"path,omitempty"`
	Store      string    `json:"store,omitempty"`
	Generation uint64    `json:"generation,omitempty"`
	Checksum   string    `json:"checksum,omitempty"`
	Mode       string    `json:"mode,omitempty"`
	Features   int       `json:"features"`
	Dimension  int       `json:"dimension"`
	Classes    int       `json:"classes"`
	LoadedAt   time.Time `json:"loaded_at"`
}

// ModelsResponse is the GET /v1/models reply.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// ReloadResponse is the POST /v1/models/reload reply. Backends is how
// many backends applied the reload; only a gateway sets it.
type ReloadResponse struct {
	Reloaded int `json:"reloaded"`
	Backends int `json:"backends,omitempty"`
}

// PredictRequest is the POST /v1/predict body. Inputs is the general
// batch form; Input is the single-row convenience. Exactly one must be
// set.
type PredictRequest struct {
	Model  string      `json:"model"`
	Inputs [][]float64 `json:"inputs,omitempty"`
	Input  []float64   `json:"input,omitempty"`
}

// PredictResponse is the POST /v1/predict reply, one class per row.
type PredictResponse struct {
	Model       string `json:"model"`
	Predictions []int  `json:"predictions"`
}

// SimilaritiesRequest is the POST /v1/similarities body.
type SimilaritiesRequest struct {
	Model string    `json:"model"`
	Input []float64 `json:"input"`
}

// SimilaritiesResponse is the POST /v1/similarities reply: the winning
// class and the per-class scores.
type SimilaritiesResponse struct {
	Model        string    `json:"model"`
	Class        int       `json:"class"`
	Similarities []float64 `json:"similarities"`
}

// ReconstructRequest is the POST /v1/reconstruct body.
type ReconstructRequest struct {
	Model string    `json:"model"`
	Query []float64 `json:"query"`
}

// Reconstruction is the PRID attack's estimate of one class's training
// data: the class, the final cosine similarity of the estimate's
// encoding to that class, and the reconstructed features.
type Reconstruction struct {
	Class      int       `json:"class"`
	Similarity float64   `json:"similarity"`
	Data       []float64 `json:"data"`
}

// ReconstructResponse is the POST /v1/reconstruct reply.
type ReconstructResponse struct {
	Model string `json:"model"`
	Reconstruction
}

// AuditRequest is the POST /v1/audit/leakage body.
type AuditRequest struct {
	Model   string      `json:"model"`
	Train   [][]float64 `json:"train"`
	Queries [][]float64 `json:"queries"`
}

// AuditResponse is the POST /v1/audit/leakage reply: the mean
// information leakage Δ over the probe queries.
type AuditResponse struct {
	Model   string  `json:"model"`
	Leakage float64 `json:"leakage"`
	Queries int     `json:"queries"`
}

// ErrorResponse is the envelope of every non-200 /v1 answer. RequestID
// carries the request's X-Request-ID so a failure in a client log can be
// matched to the server's log line and /debug/requests trace.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}
