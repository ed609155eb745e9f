package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"

	"prid/internal/serve"
	"prid/internal/serve/client"
	"prid/internal/serve/wire"
)

// backendOp is one typed call against a single backend's client. The
// router treats the result as opaque; quorum mode compares results with
// reflect.DeepEqual, so ops must return plain data (slices, structs of
// scalars), which every serving endpoint's reply already is.
type backendOp func(ctx context.Context, cli *client.Client) (any, error)

// callerFault reports whether err is a definitive 4xx from a backend —
// the request itself is wrong, every replica would answer identically,
// so the verdict is relayed without burning the rest of the replica set.
// 429 is excluded: that is the backend protecting itself, not judging
// the request.
func callerFault(err error) (*client.StatusError, bool) {
	var se *client.StatusError
	if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 && se.Code != http.StatusTooManyRequests {
		return se, true
	}
	return nil, false
}

// shed reports whether err is a backend's protective refusal (503/429),
// accounted separately from hard failures on /gatewayz.
func shed(err error) bool {
	var se *client.StatusError
	return errors.As(err, &se) &&
		(se.Code == http.StatusServiceUnavailable || se.Code == http.StatusTooManyRequests)
}

// candidates returns the replica set for key — the ring owner first,
// then its clockwise successors — reordered healthy-first so the router
// never opens with a backend the prober has already condemned (whose
// client breaker is likely open and would stall the attempt). With the
// whole ring ejected it falls back to the full configured fleet: trying
// dead backends beats refusing outright, and one of them may have
// recovered inside the probe-detection gap.
func (g *Gateway) candidates(key string) []*backend {
	names := g.ring.LookupN(key, g.cfg.Replicas)
	if len(names) == 0 {
		names = g.order
	}
	return g.healthyFirst(names)
}

// healthyFirst returns the named backends, healthy ones first, each
// group in the given order.
func (g *Gateway) healthyFirst(names []string) []*backend {
	up := make([]*backend, 0, len(names))
	var down []*backend
	for _, n := range names {
		if b := g.backends[n]; b.healthy.Load() {
			up = append(up, b)
		} else {
			down = append(down, b)
		}
	}
	return append(up, down...)
}

// route executes op against the replica set for model, first-success or
// quorum-identical per configuration, and returns op's typed result.
func route[T any](ctx context.Context, g *Gateway, model string, op func(context.Context, *client.Client) (T, error)) (T, error) {
	fn := func(ctx context.Context, cli *client.Client) (any, error) { return op(ctx, cli) }
	cands := g.candidates(model)
	var v any
	var err error
	if g.cfg.Quorum {
		v, err = g.routeQuorum(ctx, cands, fn)
	} else {
		v, err = g.routeFirst(ctx, cands, fn)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// routeFirst walks the candidates in order and returns the first
// success. Each hop already carries the client's own short retry budget;
// moving to the next replica is the gateway's retry.
func (g *Gateway) routeFirst(ctx context.Context, cands []*backend, fn backendOp) (any, error) {
	var lastErr error
	allShed := true
	for i, b := range cands {
		if i > 0 {
			metricFailovers.Inc()
		}
		b.requests.Add(1)
		v, err := fn(ctx, b.cli)
		if err == nil {
			return v, nil
		}
		if se, definitive := callerFault(err); definitive {
			return nil, &serve.HTTPError{Status: se.Code, Err: errors.New(se.Message)}
		}
		if shed(err) {
			b.shed.Add(1)
		} else {
			b.failures.Add(1)
			allShed = false
		}
		lastErr = err
		logger.Debug("replica hop failed", "backend", b.url, "err", err)
		if ctx.Err() != nil {
			break
		}
	}
	return nil, terminal(lastErr, allShed, len(cands))
}

// routeQuorum fans fn out to every candidate concurrently and requires a
// strict majority of the fan-out to agree bit-identically. HDC inference
// is deterministic, so any disagreement means a corrupted or divergent
// replica — surfaced as a 502 and counted, never papered over by
// majority vote silently.
func (g *Gateway) routeQuorum(ctx context.Context, cands []*backend, fn backendOp) (any, error) {
	type result struct {
		v   any
		err error
	}
	results := make([]result, len(cands))
	var wg sync.WaitGroup
	for i, b := range cands {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			b.requests.Add(1)
			v, err := fn(ctx, b.cli)
			results[i] = result{v, err}
			if err != nil {
				if shed(err) {
					b.shed.Add(1)
				} else if _, definitive := callerFault(err); !definitive {
					b.failures.Add(1)
				}
			}
		}(i, b)
	}
	wg.Wait()

	// Group bit-identical successes; the quorum bar is a strict majority
	// of the whole fan-out, so lost replicas weaken — never fake — a
	// quorum.
	type group struct {
		v any
		n int
	}
	var groups []*group
	allShed := true
	var lastErr error
	for _, r := range results {
		if r.err != nil {
			if se, definitive := callerFault(r.err); definitive {
				return nil, &serve.HTTPError{Status: se.Code, Err: errors.New(se.Message)}
			}
			if !shed(r.err) {
				allShed = false
			}
			lastErr = r.err
			continue
		}
		placed := false
		for _, grp := range groups {
			if reflect.DeepEqual(grp.v, r.v) {
				grp.n++
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, &group{v: r.v, n: 1})
		}
	}
	if len(groups) > 1 {
		metricQuorumMismatches.Inc()
		logger.Warn("quorum mismatch", "groups", len(groups), "replicas", len(cands))
	}
	need := len(cands)/2 + 1
	var best *group
	for _, grp := range groups {
		if best == nil || grp.n > best.n {
			best = grp
		}
	}
	if best != nil && best.n >= need {
		return best.v, nil
	}
	if len(groups) > 1 {
		return nil, &serve.HTTPError{Status: http.StatusBadGateway,
			Err: fmt.Errorf("quorum mismatch: %d distinct answers across %d replicas", len(groups), len(cands))}
	}
	// Reaching here means at most one answer group short of a majority,
	// so at least one replica errored and lastErr is set.
	return nil, terminal(lastErr, allShed && best == nil, len(cands))
}

// terminal wraps the last hop error as the gateway's answer: 503 with a
// Retry-After when every replica merely shed (the fleet is overloaded,
// not broken), 502 otherwise.
func terminal(lastErr error, allShed bool, tried int) error {
	if lastErr == nil {
		lastErr = errors.New("no replica answered")
	}
	if allShed {
		return &serve.HTTPError{Status: http.StatusServiceUnavailable, RetryAfter: 1,
			Err: fmt.Errorf("all %d replicas shed the request: %w", tried, lastErr)}
	}
	return &serve.HTTPError{Status: http.StatusBadGateway,
		Err: fmt.Errorf("all %d replicas failed: %w", tried, lastErr)}
}

// --- the serve.Backend the gateway's edge answers /v1 from -------------

// Predict routes the rows to the model's replica set. The backend gets
// them in the "inputs" form whichever form the caller used.
func (g *Gateway) Predict(ctx context.Context, model string, rows [][]float64, _ string) ([]int, error) {
	return route(ctx, g, model, func(ctx context.Context, cli *client.Client) ([]int, error) {
		return cli.Predict(ctx, model, rows)
	})
}

// simsResult bundles the two-value similarity reply so quorum mode can
// compare whole answers.
type simsResult struct {
	class int
	sims  []float64
}

// Similarities routes one similarity probe to the model's replica set.
func (g *Gateway) Similarities(ctx context.Context, model string, row []float64) (int, []float64, error) {
	res, err := route(ctx, g, model, func(ctx context.Context, cli *client.Client) (simsResult, error) {
		class, sims, err := cli.Similarities(ctx, model, row)
		return simsResult{class, sims}, err
	})
	return res.class, res.sims, err
}

// Reconstruct routes the attack view to the model's replica set.
func (g *Gateway) Reconstruct(ctx context.Context, model string, query []float64) (wire.Reconstruction, error) {
	return route(ctx, g, model, func(ctx context.Context, cli *client.Client) (wire.Reconstruction, error) {
		return cli.Reconstruct(ctx, model, query)
	})
}

// AuditLeakage routes the leakage audit to the model's replica set.
func (g *Gateway) AuditLeakage(ctx context.Context, model string, train, queries [][]float64) (float64, error) {
	return route(ctx, g, model, func(ctx context.Context, cli *client.Client) (float64, error) {
		return cli.AuditLeakage(ctx, model, train, queries)
	})
}

// Models aggregates the fleet's registries: every backend is asked
// concurrently, healthy ones first, and the union (by model name) comes
// back sorted. One success suffices — the fleet serves replicas, not
// partitions of the model set — but aggregation must see every backend,
// including one that uniquely holds a model mid-rollout.
func (g *Gateway) Models(ctx context.Context) ([]wire.ModelInfo, error) {
	cands := g.healthyFirst(g.order)
	type result struct {
		models []wire.ModelInfo
		err    error
	}
	results := make([]result, len(cands))
	var wg sync.WaitGroup
	for i, b := range cands {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			b.requests.Add(1)
			m, err := b.cli.Models(ctx)
			results[i] = result{m, err}
			if err != nil {
				if shed(err) {
					b.shed.Add(1)
				} else {
					b.failures.Add(1)
				}
			}
		}(i, b)
	}
	wg.Wait()
	merged := map[string]wire.ModelInfo{}
	ok := false
	var lastErr error
	for _, res := range results {
		if res.err != nil {
			lastErr = res.err
			continue
		}
		ok = true
		for _, m := range res.models {
			if _, dup := merged[m.Name]; !dup {
				merged[m.Name] = m
			}
		}
	}
	if !ok {
		return nil, terminal(lastErr, false, len(cands))
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]wire.ModelInfo, 0, len(names))
	for _, name := range names {
		out = append(out, merged[name])
	}
	return out, nil
}

// Reload fans the reload out to the whole configured fleet — including
// currently-ejected backends, which must not rejoin with stale models.
// A partial reload leaves the fleet divergent, which would break the
// bit-identical replica contract, so any failure fails the call loudly
// (502) rather than reporting the subset that worked.
func (g *Gateway) Reload(ctx context.Context) (wire.ReloadResponse, error) {
	type result struct {
		n   int
		err error
	}
	results := make([]result, len(g.order))
	var wg sync.WaitGroup
	for i, url := range g.order {
		b := g.backends[url]
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			b.requests.Add(1)
			n, err := b.cli.Reload(ctx)
			results[i] = result{n, err}
			if err != nil {
				b.failures.Add(1)
			}
		}(i, b)
	}
	wg.Wait()
	var out wire.ReloadResponse
	for i, res := range results {
		if res.err != nil {
			return wire.ReloadResponse{}, &serve.HTTPError{Status: http.StatusBadGateway,
				Err: fmt.Errorf("reload incomplete (fleet may be divergent): backend %s: %w", g.order[i], res.err)}
		}
		out.Reloaded += res.n
		out.Backends++
	}
	return out, nil
}
