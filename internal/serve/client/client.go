// Package client is the stdlib-only Go client for the PRID serving API
// (internal/serve, and internal/gateway in front of a fleet); it sends
// and decodes the internal/serve/wire types. It is built for unreliable
// networks and servers: capped exponential backoff with deterministic
// jitter, Retry-After awareness, a circuit breaker, per-attempt deadline
// propagation, and idempotent-only retry rules. It is the client half of
// the resilience story the fault-injection framework
// (internal/faultinject) attacks from the server half — cmd/chaos-smoke
// drives the two against each other and requires bit-identical
// predictions to come out.
//
// All the query endpoints (predict, similarities, reconstruct, audit,
// models, probes) are pure functions of the loaded model and therefore
// idempotent: the client retries them freely. Reload mutates the
// registry; it is executed at most once per call and never retried,
// because a failed attempt may still have applied.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"prid/internal/obs"
	"prid/internal/rng"
	"prid/internal/serve/wire"
)

// maxResponseBytes caps how much of a response body the client reads.
const maxResponseBytes = 1 << 26

var logger = obs.Logger("serve.client")

var (
	metricAttempts = obs.GetCounter("serve.client.attempts")
	metricRetries  = obs.GetCounter("serve.client.retries")
	metricGaveUp   = obs.GetCounter("serve.client.gave_up")
)

// Config tunes a Client. The zero value plus BaseURL is usable; New
// fills in the defaults.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient performs the round trips (a fresh http.Client when
	// nil). Its Timeout is left alone; per-attempt deadlines come from
	// AttemptTimeout.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per idempotent call (default 6).
	MaxAttempts int
	// BaseBackoff is the first retry delay before jitter (default 50ms);
	// each further retry doubles it up to MaxBackoff (default 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds a single attempt (default 10s); the caller's
	// context bounds the whole call, and CallTimeout (default 60s) caps
	// it when the caller set no deadline.
	AttemptTimeout time.Duration
	CallTimeout    time.Duration
	// JitterSeed makes the backoff jitter reproducible (default 1).
	JitterSeed uint64
	// BreakerThreshold consecutive failures open the circuit (default
	// 5); BreakerCooldown is how long it stays open before a half-open
	// trial (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock supplies time; tests inject a fake so backoff schedules run
	// without real sleeps. Nil selects the real clock.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 60 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Client talks to one PRID server. Safe for concurrent use.
type Client struct {
	cfg     Config
	breaker *breaker

	mu     sync.Mutex
	jitter *rng.Source
}

// New validates the base URL and builds a client.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q is not absolute", cfg.BaseURL)
	}
	return &Client{
		cfg:     cfg,
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		jitter:  rng.New(cfg.JitterSeed),
	}, nil
}

// --- API surface ------------------------------------------------------

// Models lists the served registry.
func (c *Client) Models(ctx context.Context) ([]wire.ModelInfo, error) {
	var out wire.ModelsResponse
	err := c.do(ctx, call{method: http.MethodGet, path: "/v1/models", out: &out, idempotent: true})
	return out.Models, err
}

// Predict classifies a batch of feature rows.
func (c *Client) Predict(ctx context.Context, model string, rows [][]float64) ([]int, error) {
	var out wire.PredictResponse
	in := wire.PredictRequest{Model: model, Inputs: rows}
	if err := c.do(ctx, call{method: http.MethodPost, path: "/v1/predict", in: in, out: &out, idempotent: true}); err != nil {
		return nil, err
	}
	if len(out.Predictions) != len(rows) {
		return nil, fmt.Errorf("client: %d predictions for %d rows", len(out.Predictions), len(rows))
	}
	return out.Predictions, nil
}

// PredictOne classifies a single feature row (the micro-batched path).
func (c *Client) PredictOne(ctx context.Context, model string, row []float64) (int, error) {
	var out wire.PredictResponse
	in := wire.PredictRequest{Model: model, Input: row}
	if err := c.do(ctx, call{method: http.MethodPost, path: "/v1/predict", in: in, out: &out, idempotent: true}); err != nil {
		return 0, err
	}
	if len(out.Predictions) != 1 {
		return 0, fmt.Errorf("client: %d predictions for one row", len(out.Predictions))
	}
	return out.Predictions[0], nil
}

// Similarities returns the winning class and per-class cosine scores.
func (c *Client) Similarities(ctx context.Context, model string, row []float64) (int, []float64, error) {
	var out wire.SimilaritiesResponse
	in := wire.SimilaritiesRequest{Model: model, Input: row}
	err := c.do(ctx, call{method: http.MethodPost, path: "/v1/similarities", in: in, out: &out, idempotent: true})
	return out.Class, out.Similarities, err
}

// Reconstruct mounts the served model-inversion attack view.
func (c *Client) Reconstruct(ctx context.Context, model string, query []float64) (wire.Reconstruction, error) {
	var out wire.ReconstructResponse
	in := wire.ReconstructRequest{Model: model, Query: query}
	err := c.do(ctx, call{method: http.MethodPost, path: "/v1/reconstruct", in: in, out: &out, idempotent: true})
	return out.Reconstruction, err
}

// AuditLeakage runs the defender self-audit over the given sets.
func (c *Client) AuditLeakage(ctx context.Context, model string, train, queries [][]float64) (float64, error) {
	var out wire.AuditResponse
	in := wire.AuditRequest{Model: model, Train: train, Queries: queries}
	err := c.do(ctx, call{method: http.MethodPost, path: "/v1/audit/leakage", in: in, out: &out, idempotent: true})
	return out.Leakage, err
}

// Reload asks the server to re-read every file-backed model. It mutates
// server state and is therefore attempted exactly once — no retries —
// per the idempotent-only retry rule.
func (c *Client) Reload(ctx context.Context) (int, error) {
	var out wire.ReloadResponse
	err := c.do(ctx, call{method: http.MethodPost, path: "/v1/models/reload", out: &out, idempotent: false})
	return out.Reloaded, err
}

// Ready probes /readyz; nil means the server is routing-ready.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, call{method: http.MethodGet, path: "/readyz", idempotent: true})
}

// --- retry engine -----------------------------------------------------

type call struct {
	method, path string
	in, out      any
	idempotent   bool
	// requestID is minted once per logical call in do and sent as
	// X-Request-ID on every attempt, so the server-side log lines and
	// /debug/requests traces of all retries of one call correlate.
	requestID string
}

// StatusError is a non-200 reply, preserving the server's error envelope
// and any Retry-After hint.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server status %d: %s", e.Code, e.Message)
}

// transportError wraps connection-level failures (refused, reset,
// dropped mid-body) — always retryable on idempotent calls.
type transportError struct{ err error }

func (e *transportError) Error() string { return "client: transport: " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// payloadError wraps a 200 whose body did not decode — the truncated or
// corrupted payload case. Retryable: the request is re-askable and the
// reply was unusable.
type payloadError struct{ err error }

func (e *payloadError) Error() string { return "client: unusable payload: " + e.err.Error() }
func (e *payloadError) Unwrap() error { return e.err }

// retryable classifies an attempt failure and extracts any server
// Retry-After hint.
func retryable(err error) (bool, time.Duration) {
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable:
			return true, se.RetryAfter
		case se.Code >= 500:
			return true, 0
		default: // 4xx: the request itself is wrong; retrying cannot help
			return false, 0
		}
	}
	var te *transportError
	var pe *payloadError
	if errors.As(err, &te) || errors.As(err, &pe) {
		return true, 0
	}
	return false, 0
}

// do runs one logical call through the retry engine: circuit breaker,
// capped exponential backoff with deterministic jitter, Retry-After
// floors, and per-attempt deadlines, all bounded by the caller's context
// (or CallTimeout when the caller set none).
func (c *Client) do(ctx context.Context, op call) error {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
	}
	// A caller already holding a request trace — the gateway proxying an
	// inbound request to a backend — propagates its request ID across the
	// hop, so one user-visible request correlates end to end: gateway
	// logs, backend logs, and both /debug/requests rings. Callers without
	// a trace get one ID per logical call, resent on every retry attempt.
	if id := obs.ReqTraceFrom(ctx).ID(); id != "" {
		op.requestID = id
	} else {
		op.requestID = obs.NewRequestID()
	}
	attempts := 0
	var lastErr error
	for {
		if ok, wait := c.breaker.Allow(c.cfg.Clock.Now()); !ok {
			// Open circuit: wait out the cooldown (bounded by ctx) and
			// ask again — the client self-heals instead of erroring the
			// caller out of an outage that is already ending.
			if err := c.cfg.Clock.Sleep(ctx, wait); err != nil {
				return c.giveUp(op, attempts, errors.Join(ErrCircuitOpen, lastErr, err))
			}
			continue
		}
		attempts++
		metricAttempts.Inc()
		err := c.once(ctx, op)
		if err == nil {
			c.breaker.Success()
			return nil
		}
		c.breaker.Failure(c.cfg.Clock.Now())
		lastErr = err
		canRetry, retryAfter := retryable(err)
		if !op.idempotent || !canRetry || attempts >= c.cfg.MaxAttempts {
			return c.giveUp(op, attempts, lastErr)
		}
		delay := c.backoff(attempts)
		if retryAfter > delay {
			delay = retryAfter
		}
		metricRetries.Inc()
		logger.Debug("retrying", "path", op.path, "req_id", op.requestID,
			"attempt", attempts, "delay", delay, "err", err)
		if serr := c.cfg.Clock.Sleep(ctx, delay); serr != nil {
			return c.giveUp(op, attempts, errors.Join(lastErr, serr))
		}
	}
}

func (c *Client) giveUp(op call, attempts int, err error) error {
	metricGaveUp.Inc()
	if attempts > 1 {
		return fmt.Errorf("client: %s %s failed after %d attempts: %w", op.method, op.path, attempts, err)
	}
	return err
}

// backoff returns the nth retry delay (n ≥ 1): capped exponential with
// full-half jitter — uniform in [d/2, d) — from the seeded stream, so
// concurrent clients with different seeds desynchronize instead of
// retrying in lockstep.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BaseBackoff
	for i := 1; i < n && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	f := c.jitter.Uniform(0.5, 1)
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// once performs a single attempt under its own deadline.
func (c *Client) once(ctx context.Context, op call) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var body io.Reader
	if op.in != nil {
		raw, err := json.Marshal(op.in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(actx, op.method, c.cfg.BaseURL+op.path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if op.in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op.requestID != "" {
		req.Header.Set("X-Request-ID", op.requestID)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's budget (not the attempt's) expired: report it
			// as final, not retryable.
			return fmt.Errorf("client: %w", ctx.Err())
		}
		return &transportError{err}
	}
	defer resp.Body.Close() //pridlint:allow errdrop read errors surface via ReadAll; the close is best-effort
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("client: %w", ctx.Err())
		}
		return &transportError{fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
		var envelope wire.ErrorResponse
		if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
			se.Message = envelope.Error
		} else {
			se.Message = string(truncateForError(raw))
		}
		return se
	}
	if op.out != nil {
		if err := json.Unmarshal(raw, op.out); err != nil {
			return &payloadError{err}
		}
	}
	return nil
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

func truncateForError(raw []byte) []byte {
	const max = 120
	if len(raw) > max {
		return raw[:max]
	}
	return raw
}
