// Package engine is the transport-agnostic core of the PRID serving
// stack: the hot-reloadable model registry, the predict micro-batcher,
// and the typed domain operations (predict, similarities, reconstruct,
// leakage audit, model listing, reload).
//
// An *Engine is the local implementation of internal/serve's Backend
// interface: `prid serve` answers /v1 from one, and internal/gateway
// implements the same interface over a ring of remote backends. Errors
// carry a Kind so the HTTP edge can map domain failures to statuses
// without string matching.
//
// The package is stdlib-only, like the rest of the module.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"prid/internal/obs"
	"prid/internal/serve/wire"
)

// Kind classifies an engine error for transport adapters: which party
// was wrong and whether retrying can help. HTTP adapters map these to
// 400/404/503/500; other transports map them to their own status space.
type Kind int

const (
	// KindInternal is the default: the engine itself failed.
	KindInternal Kind = iota
	// KindInvalid marks a request the caller must fix (bad shape,
	// non-finite features, width mismatch). Retrying cannot help.
	KindInvalid
	// KindNotFound marks a reference to a model the registry does not
	// serve.
	KindNotFound
	// KindUnavailable marks a transient refusal (batcher closed during
	// reload/shutdown, caller's context expired) — retryable.
	KindUnavailable
)

// Error is a classified engine failure.
type Error struct {
	Kind Kind
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// errOf wraps err with the given kind (nil stays nil).
func errOf(kind Kind, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Kind: kind, Err: err}
}

// KindOf extracts the classification of err, defaulting to KindInternal
// for unclassified errors.
func KindOf(err error) Kind {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return KindInternal
}

// Config tunes an Engine. The zero value is usable; New fills defaults.
type Config struct {
	// BatchWindow is how long the micro-batcher holds the first request
	// of a batch open for companions (default 2ms).
	BatchWindow time.Duration
	// BatchMax caps rows per micro-batch (default 32); requests already
	// carrying at least this many rows bypass the batcher entirely.
	BatchMax int
}

func (c Config) withDefaults() Config {
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	return c
}

// Engine binds a registry to the batching policy and exposes the domain
// operations. Safe for concurrent use; Close drains the batchers.
type Engine struct {
	cfg Config
	reg *Registry
}

// New builds an engine with an empty registry.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg}
	e.reg = NewRegistry(func(m Served) *Batcher {
		return NewBatcher(m.PredictBatch, cfg.BatchWindow, cfg.BatchMax)
	})
	return e
}

// Registry exposes the engine's model registry for population and
// inspection.
func (e *Engine) Registry() *Registry { return e.reg }

// Close drains and closes every registered model's batcher.
func (e *Engine) Close() { e.reg.Close() }

// Models lists the served registry, sorted by name.
func (e *Engine) Models(_ context.Context) ([]wire.ModelInfo, error) { return e.reg.List(), nil }

// Reload re-reads every file-backed model from disk.
func (e *Engine) Reload(_ context.Context) (wire.ReloadResponse, error) {
	n, err := e.reg.Reload()
	return wire.ReloadResponse{Reloaded: n}, errOf(KindInternal, err)
}

// lookup resolves the named model with classified errors.
func (e *Engine) lookup(model string) (*Entry, error) {
	if model == "" {
		return nil, errOf(KindInvalid, errors.New(`missing "model" field`))
	}
	ent, ok := e.reg.Get(model)
	if !ok {
		return nil, errOf(KindNotFound, fmt.Errorf("unknown model %q", model))
	}
	return ent, nil
}

// CheckFiniteRow rejects NaN/Inf features with a field-level message.
// The validation contract must not depend on the transport: JSON cannot
// spell NaN, but any future ingestion path — gRPC, binary batch files,
// in-process callers — hits the same guard the root package's Predict
// enforces.
func CheckFiniteRow(row []float64, field string) error {
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s[%d] is %v: features must be finite", field, j, v)
		}
	}
	return nil
}

// CheckFiniteRows is CheckFiniteRow over a batch, naming the offending
// row and feature.
func CheckFiniteRows(rows [][]float64, field string) error {
	for i, row := range rows {
		if err := CheckFiniteRow(row, fmt.Sprintf("%s[%d]", field, i)); err != nil {
			return err
		}
	}
	return nil
}

// Predict classifies rows against the named model. field names the
// request field rows came from ("inputs", "input") in validation
// errors. Small batches coalesce with concurrent callers through the
// model's micro-batcher; batches of BatchMax rows or more run straight
// through the parallel path.
func (e *Engine) Predict(ctx context.Context, model string, rows [][]float64, field string) ([]int, error) {
	ent, err := e.lookup(model)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != ent.Info().Features {
			return nil, errOf(KindInvalid,
				fmt.Errorf("input %d has %d features, model %q expects %d", i, len(row), model, ent.Info().Features))
		}
	}
	if err := CheckFiniteRows(rows, field); err != nil {
		return nil, errOf(KindInvalid, err)
	}
	var classes []int
	if len(rows) >= e.cfg.BatchMax {
		start := time.Now()
		classes, err = ent.Served().PredictBatch(rows)
		if err == nil {
			observeBatchDirect(len(rows), time.Since(start))
			obs.ReqTraceFrom(ctx).Mark(StagePredict)
		}
	} else {
		classes, err = e.predictBatched(ctx, ent, rows)
	}
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, ErrBatcherClosed) {
			return nil, errOf(KindUnavailable, err)
		}
		return nil, errOf(KindInternal, err)
	}
	return classes, nil
}

// predictBatched pushes each row through the entry's micro-batcher
// concurrently and gathers the per-row results in order.
func (e *Engine) predictBatched(ctx context.Context, ent *Entry, rows [][]float64) ([]int, error) {
	classes := make([]int, len(rows))
	errs := make([]error, len(rows))
	done := make(chan int, len(rows))
	for i, row := range rows {
		go func(i int, row []float64) {
			classes[i], errs[i] = ent.Batch().Predict(ctx, row)
			done <- i
		}(i, row)
	}
	for range rows {
		<-done
	}
	return classes, errors.Join(errs...)
}

// Similarities returns the winning class and per-class cosine scores
// for one row.
func (e *Engine) Similarities(_ context.Context, model string, row []float64) (int, []float64, error) {
	ent, err := e.lookup(model)
	if err != nil {
		return 0, nil, err
	}
	if err := CheckFiniteRow(row, "input"); err != nil {
		return 0, nil, errOf(KindInvalid, err)
	}
	sims, err := ent.Served().Similarities(row)
	if err != nil {
		return 0, nil, errOf(KindInvalid, err)
	}
	best := 0
	for i, v := range sims {
		if v > sims[best] {
			best = i
		}
	}
	return best, sims, nil
}

// Reconstruct mounts the PRID combined model-inversion attack against
// the named model using nothing a query client would not hold. Its
// existence is the point — a deployed HDC model answers this.
func (e *Engine) Reconstruct(_ context.Context, model string, query []float64) (wire.Reconstruction, error) {
	ent, err := e.lookup(model)
	if err != nil {
		return wire.Reconstruction{}, err
	}
	// Binary entries hold only sign bits — the information reconstruction
	// needs is exactly what the 1-bit packing destroyed. Refuse with a
	// caller error pointing at the float generation.
	if ent.Model() == nil {
		return wire.Reconstruction{}, errOf(KindInvalid,
			fmt.Errorf("model %q is served in binary mode; reconstruct requires a float-mode model", model))
	}
	// Same non-finite guard as the predict path: a NaN/Inf query would
	// otherwise propagate through every masked-similarity probe of the
	// reconstruction loop instead of failing at the boundary.
	if err := CheckFiniteRow(query, "query"); err != nil {
		return wire.Reconstruction{}, errOf(KindInvalid, err)
	}
	a, err := ent.Attacker()
	if err != nil {
		return wire.Reconstruction{}, errOf(KindInternal, err)
	}
	recon, err := a.Reconstruct(query)
	if err != nil {
		return wire.Reconstruction{}, errOf(KindInvalid, err)
	}
	return wire.Reconstruction{Class: recon.Class, Similarity: recon.Similarity, Data: recon.Data}, nil
}

// AuditLeakage is the defender-side self-audit: given the training set
// and probe queries, it measures the mean information leakage Δ an
// attacker holding query access to this model would extract — the
// paper's metric, behind the same boundary the attack uses.
func (e *Engine) AuditLeakage(_ context.Context, model string, train, queries [][]float64) (float64, error) {
	ent, err := e.lookup(model)
	if err != nil {
		return 0, err
	}
	if ent.Model() == nil {
		return 0, errOf(KindInvalid,
			fmt.Errorf("model %q is served in binary mode; leakage audits require a float-mode model", model))
	}
	if err := CheckFiniteRows(train, "train"); err != nil {
		return 0, errOf(KindInvalid, err)
	}
	if err := CheckFiniteRows(queries, "queries"); err != nil {
		return 0, errOf(KindInvalid, err)
	}
	leak, err := ent.Model().AuditLeakage(train, queries)
	if err != nil {
		return 0, errOf(KindInvalid, err)
	}
	return leak, nil
}
