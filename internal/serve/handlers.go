package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"prid/internal/obs"
	"prid/internal/serve/engine"
	"prid/internal/serve/wire"
)

// maxBodyBytes caps request bodies (64 MB): audit requests legitimately
// carry train sets, everything else is far smaller.
const maxBodyBytes = 1 << 26

// WriteError emits the JSON error envelope with the given status and
// returns err so handlers can `return WriteError(...)` in one line. The
// gateway's own readiness probe answers with it too.
func WriteError(w http.ResponseWriter, r *http.Request, status int, err error) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := wire.ErrorResponse{Error: err.Error(), RequestID: obs.ReqTraceFrom(r.Context()).ID()}
	json.NewEncoder(w).Encode(body) //pridlint:allow errdrop the status line is already committed; the returned err IS the response
	return err
}

// statusOf is the edge's one error rule: an error that names its HTTP
// status keeps it, and any other error maps by its engine kind.
func statusOf(err error) int {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status
	}
	switch engine.KindOf(err) {
	case engine.KindInvalid:
		return http.StatusBadRequest
	case engine.KindNotFound:
		return http.StatusNotFound
	case engine.KindUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// reply answers a Backend call: it marks the end of the call's trace
// stage, then writes err under its status (plus any Retry-After hint it
// carries) or v as the 200 JSON body.
func (e *Edge) reply(w http.ResponseWriter, r *http.Request, v any, err error) error {
	obs.ReqTraceFrom(r.Context()).Mark(e.stage)
	if err != nil {
		var he *HTTPError
		if errors.As(err, &he) && he.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.RetryAfter))
		}
		return WriteError(w, r, statusOf(err), err)
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// decodeBody parses the request body into v, answering malformed JSON
// with a 400 itself.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return WriteError(w, r, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
	}
	return nil
}

// requireMethod enforces the endpoint's method, answering 405 itself.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) error {
	if r.Method != method {
		w.Header().Set("Allow", method)
		return WriteError(w, r, http.StatusMethodNotAllowed,
			fmt.Errorf("%s requires %s, got %s", r.URL.Path, method, r.Method))
	}
	return nil
}

// --- GET /v1/models ---------------------------------------------------

func (e *Edge) handleModels(w http.ResponseWriter, r *http.Request) error {
	models, err := e.backend.Models(r.Context())
	//pridlint:allow leaksurface ModelInfo is listing metadata (name, path, shape, provenance); class rows never pass through it
	return e.reply(w, r, wire.ModelsResponse{Models: models}, err)
}

// --- POST /v1/models/reload -------------------------------------------

func (e *Edge) handleReload(w http.ResponseWriter, r *http.Request) error {
	out, err := e.backend.Reload(r.Context())
	//pridlint:allow leaksurface the reply is two counts (models reloaded, backends that applied it), nothing model-derived
	return e.reply(w, r, out, err)
}

// --- POST /v1/predict -------------------------------------------------

func (e *Edge) handlePredict(w http.ResponseWriter, r *http.Request) error {
	var req wire.PredictRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	if (len(req.Inputs) == 0) == (len(req.Input) == 0) {
		return WriteError(w, r, http.StatusBadRequest,
			errors.New(`exactly one of "input" and "inputs" must be set`))
	}
	rows, field := req.Inputs, "inputs"
	if len(rows) == 0 {
		rows, field = [][]float64{req.Input}, "input"
	}
	classes, err := e.backend.Predict(r.Context(), req.Model, rows, field)
	return e.reply(w, r, wire.PredictResponse{Model: req.Model, Predictions: classes}, err)
}

// --- POST /v1/similarities --------------------------------------------

func (e *Edge) handleSimilarities(w http.ResponseWriter, r *http.Request) error {
	var req wire.SimilaritiesRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	class, sims, err := e.backend.Similarities(r.Context(), req.Model, req.Input)
	//pridlint:allow leaksurface /v1/similarities is the paper's query oracle: full-resolution scores are the deliberate attack surface PRID measures
	return e.reply(w, r, wire.SimilaritiesResponse{Model: req.Model, Class: class, Similarities: sims}, err)
}

// --- POST /v1/reconstruct ---------------------------------------------

// handleReconstruct is the attacker's view of the serving boundary: the
// backend mounts the PRID combined model-inversion attack against the
// named model using nothing a query client would not hold.
func (e *Edge) handleReconstruct(w http.ResponseWriter, r *http.Request) error {
	var req wire.ReconstructRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	recon, err := e.backend.Reconstruct(r.Context(), req.Model, req.Query)
	return e.reply(w, r, wire.ReconstructResponse{Model: req.Model, Reconstruction: recon}, err)
}

// --- POST /v1/audit/leakage -------------------------------------------

// handleAuditLeakage is the defender-side self-audit: the paper's mean
// information leakage Δ, measured behind the same boundary the attack
// uses.
func (e *Edge) handleAuditLeakage(w http.ResponseWriter, r *http.Request) error {
	var req wire.AuditRequest
	if err := decodeBody(w, r, &req); err != nil {
		return err
	}
	leak, err := e.backend.AuditLeakage(r.Context(), req.Model, req.Train, req.Queries)
	return e.reply(w, r, wire.AuditResponse{Model: req.Model, Leakage: leak, Queries: len(req.Queries)}, err)
}

// --- debug ------------------------------------------------------------

// registerDebug mounts the same observability surface the CLI's
// --metrics-addr server exposes, on the serving mux.
func registerDebug(mux *http.ServeMux) {
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handleDebugRequests serves the bounded ring of slowest request traces
// as JSON: request ID, endpoint, total latency, and the per-stage
// breakdown (admission wait, batch queue wait or backend hop, service,
// write). It is mounted beside /debug/vars — the per-request view the
// aggregate histograms cannot give.
func (e *Edge) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(e.slow.Snapshot()) //pridlint:allow errdrop debug readout; a write failure has no in-band recovery
}
