package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"prid"
	"prid/internal/dataset"
	"prid/internal/obs"
)

// env is what every workload run shares.
type env struct {
	prid    string // the built prid binary
	work    string // scratch directory for artifacts and logs
	workers int    // generator workers and connections: one per CPU
	seed    uint64
	seconds int
	trace   bool
}

const (
	// readyTimeout bounds one spawn → /readyz cycle.
	readyTimeout = 60 * time.Second
	// setupCycles is how many spawn → ready cycles an untraced run times;
	// setup_s is their median and the last one serves the workload.
	setupCycles = 5
	// maxLateMS is the generator's own lateness (bench.late_p99_ms) above
	// which an open-loop phase measures the generator, not the system.
	maxLateMS = 5.0
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: what the last output line carries, plus
// informational numbers that gate nothing.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]float64 `json:"info"`
	// Problems lists why Correct is false.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// prepared is a workload's set-up that needs no running process: its
// inputs, trained model, artifacts, feed and oracle.
type prepared struct {
	train     [][]float64
	rows      [][]float64
	floatPath string
	serveArgs []string
	feed      *feed
	oracle    *oracle
	loadMS    float64 // in-process load of the served artifact
}

// prepare generates the workload's data from the seed, trains its model
// in-process, saves the served artifact and loads it back as the oracle.
func prepare(w workload, e env, dir string, bodies int) (*prepared, error) {
	poolRows := bodies
	if w.rows > 1 {
		poolRows = batchPoolRows
	}
	// The pool rows are the test split: held out from training.
	ds, err := dataset.Load(w.dataset, dataset.Config{Seed: e.seed, TestSize: poolRows})
	if err != nil {
		return nil, err
	}
	model, err := prid.TrainClassifier(ds.TrainX, ds.TrainY, ds.Classes,
		prid.WithDimension(w.dim), prid.WithSeed(e.seed))
	if err != nil {
		return nil, err
	}
	p := &prepared{train: ds.TrainX, rows: ds.TestX, floatPath: filepath.Join(dir, "model.prid")}
	if err := model.SaveFile(p.floatPath); err != nil {
		return nil, err
	}
	p.oracle = &oracle{rows: ds.TestX, labels: ds.TestY, train: ds.TrainX}
	served := p.floatPath
	if w.binary {
		served = filepath.Join(dir, "model-binary.prid")
		if err := model.Binarize().SaveFile(served); err != nil {
			return nil, err
		}
	}
	p.serveArgs = []string{"serve", "--model", modelName + "=" + served}
	start := time.Now()
	switch {
	case w.binary:
		p.serveArgs = append(p.serveArgs, "--mode", "binary")
		bm, err := prid.LoadBinaryFile(served)
		if err != nil {
			return nil, err
		}
		p.loadMS = ms(time.Since(start))
		p.oracle.predict = bm.PredictBatch
	default:
		m, err := prid.LoadFile(served)
		if err != nil {
			return nil, err
		}
		p.loadMS = ms(time.Since(start))
		p.oracle.predict = m.PredictBatch
		if w.attack {
			if p.oracle.attacker, err = prid.NewAttacker(m); err != nil {
				return nil, err
			}
		}
	}
	p.feed, err = newFeed(w, ds.TestX, bodies, e.seed)
	return p, err
}

// fleet is the set of processes serving one workload.
type fleet struct {
	backend, gateway *proc
}

func (f *fleet) target() *proc {
	if f.gateway != nil {
		return f.gateway
	}
	return f.backend
}

func (f *fleet) stop() {
	if f.gateway != nil {
		f.gateway.stop()
	}
	if f.backend != nil {
		f.backend.stop()
	}
}

// setUp starts the workload's processes and waits until they serve: the
// backend until /readyz answers, the gateway until its backend is
// healthy, and on attack until the first reconstruction (which builds
// the attacker lazily) has returned. It returns the elapsed seconds.
func setUp(ctx context.Context, w workload, e env, p *prepared, dir string, cycle int, client *http.Client, fl *fleet) (float64, error) {
	// On attack, a training row is the set-up query, so it is none of the
	// measured ones.
	row, err := json.Marshal(p.train[cycle%len(p.train)]) //pridlint:allow leaksurface a generated training row sent as the set-up query, not model output
	if err != nil {
		return 0, err
	}
	query := append(append(append([]byte(nil), p.feed.prefix...), row...), p.feed.suffix...)
	start := time.Now()
	if fl.backend, err = spawn(e.prid, dir, fmt.Sprintf("serve-%d", cycle), p.serveArgs...); err != nil {
		return 0, err
	}
	if err := fl.backend.waitReady(ctx, client, readyTimeout); err != nil {
		return 0, err
	}
	if w.gateway {
		if fl.gateway, err = spawn(e.prid, dir, fmt.Sprintf("gateway-%d", cycle), "gateway", "--backend", fl.backend.url); err != nil {
			return 0, err
		}
		if err := fl.gateway.waitReady(ctx, client, readyTimeout); err != nil {
			return 0, err
		}
	}
	if w.attack {
		if err := postOK(ctx, client, fl.target().url+"/v1/reconstruct", query); err != nil {
			return 0, fmt.Errorf("first reconstruct: %w", err)
		}
	}
	return time.Since(start).Seconds(), nil
}

func postOK(ctx context.Context, client *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()         //pridlint:allow errdrop set-up request; the status code is the result
	msg, _ := io.ReadAll(resp.Body) // only used in the error below
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// runWorkload runs one workload end to end and returns its result and,
// on a traced run, its spans.
func runWorkload(ctx context.Context, e env, w workload) (*result, []span, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(e.work, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir) //pridlint:allow errdrop scratch directory under .bench_build; a leftover harms nothing

	phases, bodies := plan(w, float64(e.seconds), e.trace, e.workers)
	p, err := prepare(w, e, dir, bodies)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}

	probe := newClient(1)
	defer probe.CloseIdleConnections()
	cycles := setupCycles
	if e.trace {
		cycles = 1
	}
	var fl fleet
	defer fl.stop()
	setups := make([]float64, 0, cycles)
	for c := 0; c < cycles; c++ {
		fl.stop()
		fl = fleet{}
		runtime.GC()
		secs, err := setUp(ctx, w, e, p, dir, c, probe, &fl)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up cycle %d: %w", c, err)
		}
		setups = append(setups, secs)
	}

	gen := &generator{client: newClient(e.workers), url: fl.target().url + "/v1/" + w.endpoint(),
		workers: e.workers, body: p.feed.body}
	defer gen.client.CloseIdleConnections()
	var results []phaseResult
	var before, after [2]obs.Snapshot // backend, gateway
	scrape := func(into *[2]obs.Snapshot) error {
		var err error
		if into[0], err = scrapeVars(ctx, probe, fl.backend.url); err != nil {
			return err
		}
		if fl.gateway != nil {
			into[1], err = scrapeVars(ctx, probe, fl.gateway.url)
		}
		return err
	}
	tr := newTracer() // before the phases, so live spans start after its epoch
	tracedOnce := false
	for _, ph := range phases {
		var reqID func(int) string
		if ph.traced {
			if !tracedOnce {
				if err := scrape(&before); err != nil {
					return nil, nil, err
				}
				tracedOnce = true
			}
			name := ph.name
			reqID = func(i int) string { return requestID(w, name, i) }
		}
		runtime.GC()
		results = append(results, gen.run(ctx, ph, reqID))
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	if e.trace {
		if err := scrape(&after); err != nil {
			return nil, nil, err
		}
	}
	rss, err := fl.backend.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	var gatewayRSS float64
	if fl.gateway != nil {
		if gatewayRSS, err = fl.gateway.peakRSSMB(); err != nil {
			return nil, nil, err
		}
	}
	fl.stop()

	res := &result{Workload: w.name, Seed: e.seed, Seconds: e.seconds, Trace: e.trace, Correct: true,
		Metrics: map[string]metric{}, Info: map[string]float64{}}
	for _, r := range results {
		st := summarize(r.samples)
		res.Attempted += st.n
		res.Failed += st.failed
		res.Info[r.phase.name+".samples"] = float64(st.n)
		res.Info[r.phase.name+".late_p99_ms"] = st.lateP99
		if r.wrapped > 0 {
			res.Info[r.phase.name+".reused_bodies"] = float64(r.wrapped)
		}
		if r.phase.open && r.phase.name != "warmup" && st.lateP99 > maxLateMS {
			res.fail("%s: generator ran %.3f ms late at p99 (limit %.0f ms): the numbers would measure the generator", r.phase.name, st.lateP99, maxLateMS)
		}
	}
	check, err := p.oracle.check(p.feed, results)
	if err != nil {
		return nil, nil, err
	}
	if check.mismatches > 0 {
		res.fail("%d of %d answers differ from the in-process model; first: %s", check.mismatches, check.answers, check.firstErr)
	}
	if w.attack {
		res.Info["leakage_delta"] = check.leakage
	}

	latencyPhase := "closed"
	if w.rate > 0 {
		latencyPhase = "open"
	}
	phaseNamed := func(name string) phaseResult {
		for _, r := range results {
			if r.phase.name == name {
				return r
			}
		}
		panic("no phase " + name) // plan always lays out both names
	}
	if !e.trace {
		latPhase := phaseNamed(latencyPhase)
		lat := summarize(latPhase.samples)
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: finite(v), Unit: unit} }
		put("setup_s", "s", median(setups))
		put("p50_ms", "ms", windowedPercentile(latPhase, 0.50))
		put("rows_per_s", "rows/s", windowRate(p.feed, phaseNamed("closed")))
		put("accuracy", "fraction", check.accuracy)
		put("rss_mb", "MB", rss)
		// p90 is information, not a gate: on the shared machine the
		// benchmark was calibrated on, a run's p90 sat in one of two modes
		// (22 or 34 ms on attack) that held for whole runs while p50 did
		// not move, so its spread across runs reached 0.45.
		res.Info["p90_ms"] = finite(windowedPercentile(latPhase, 0.90))
		res.Info["p99_ms"] = finite(lat.p99)
		res.Info["max_ms"] = finite(lat.pmax)
		res.Info["latency_samples"] = float64(lat.n)
		res.Info["p90_samples_beyond"] = float64(beyond(lat.n, 0.90))
		res.Info["p99_samples_beyond"] = float64(beyond(lat.n, 0.99))
		// The highest percentile this sample supports, which p99 is not
		// below 1000 samples.
		q := highestSupported(lat.n)
		res.Info["tail_percentile"] = q * 100
		res.Info["tail_ms"] = finite(percentile(latencies(latPhase.samples), q))
		res.Info["phase_p50_ms"] = finite(lat.p50)
		res.Info["phase_p90_ms"] = finite(lat.p90)
		for i, s := range setups {
			res.Info[fmt.Sprintf("setup_cycle%d_s", i)] = s
		}
		return res, nil, nil
	}

	// Traced run: live numbers from the traced half, then the replay and
	// the probes.
	var traced []sample
	for _, r := range results {
		if !r.phase.traced {
			continue
		}
		traced = append(traced, r.samples...)
		for i, s := range r.samples {
			id := requestID(w, r.phase.name, i)
			root := tr.add("request", 0, id, r.start.Add(s.due), r.start.Add(s.done))
			tr.add("http", root, id, r.start.Add(s.send), r.start.Add(s.done))
		}
	}
	live := summarize(traced)
	untraced := summarize(phaseNamed(latencyPhase).samples)
	tracedLat := summarize(phaseNamed(latencyPhase + "-traced").samples)
	ep := w.endpoint()
	handlerMS := histMean(before[0], after[0], "serve."+ep+".seconds") * 1e3

	rp, err := newReplayer(w, tr, p.floatPath)
	if err != nil {
		return nil, nil, fmt.Errorf("replay set-up: %w", err)
	}
	n := replayRequests
	if w.rows > 1 || w.attack {
		n = replayMultiRow
	}
	replayed := firstOK(phaseNamed(latencyPhase+"-traced").samples, n)
	rst, err := rp.replay(ctx, p.feed, replayed)
	if err != nil {
		return nil, nil, err
	}
	if rst.mismatches > 0 {
		res.fail("%d of %d replayed answers differ from the live ones; first: %s", rst.mismatches, rst.requests, rst.firstErr)
	}
	if err := rp.probe(ctx, p.rows); err != nil {
		return nil, nil, err
	}
	layers := rp.layers
	layers["bench.late_p99_ms"] = live.lateP99
	layers["serve.handler_ms"] = handlerMS
	layers["serve.net_ms"] = live.rttMean - handlerMS
	layers["prid.load_ms"] = p.loadMS
	layers["obs.trace_overhead_pct"] = (tracedLat.p50 - untraced.p50) / untraced.p50 * 100
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}

	info := res.Info
	info["replay.requests"] = float64(rst.requests)
	info["replay.stage_sum_ms"] = rst.stageSumMS
	info["live.rtt_ms"] = live.rttMean
	info["live.engine_queue_ms"] = histMean(before[0], after[0], "serve.batch.queue_seconds") * 1e3
	info["live.engine_batch_ms"] = histMean(before[0], after[0], "serve.batch.service_seconds") * 1e3
	info["live.engine_batch_rows"] = histMean(before[0], after[0], "serve.batch.size")
	if encN := counterDelta(before[0], after[0], "hdc.encode.samples"); encN > 0 {
		_, encS := histDelta(before[0], after[0], "hdc.encode.seconds")
		info["live.hdc_encode_us_per_row"] = encS * 1e6 / float64(encN)
	}
	info["live.attack_recon_ms"] = histMean(before[0], after[0], "attack.recon.seconds") * 1e3
	info["live.serve_shed"] = float64(counterDelta(before[0], after[0], "serve."+ep+".shed"))
	info["live.serve_rejected"] = float64(counterDelta(before[0], after[0], "serve.rejected"))
	if w.gateway {
		gwMS := histMean(before[1], after[1], "gateway."+ep+".seconds") * 1e3
		info["gateway.handler_ms"] = gwMS
		info["gateway.proxy_ms"] = gwMS - handlerMS
		info["gateway.rss_mb"] = gatewayRSS
		info["gateway.failovers"] = float64(counterDelta(before[1], after[1], "gateway.failovers"))
		info["gateway.rejected"] = float64(counterDelta(before[1], after[1], "gateway.rejected"))
	}
	return res, tr.snapshot(), nil
}

// requestID names request i of a traced phase; it is sent as
// X-Request-ID and is the request_id of the request's spans.
func requestID(w workload, phase string, i int) string {
	return fmt.Sprintf("%s-%s-%d", w.name, phase, i)
}

// windowRate returns the median, over maxWindows equal windows of a
// closed-loop phase, of the rows answered successfully per second in
// each window.
func windowRate(f *feed, r phaseResult) float64 {
	width := r.phase.dur / maxWindows
	rows := make([]float64, maxWindows)
	for _, s := range r.samples {
		if w := int(s.done / width); s.ok() && w < maxWindows {
			rows[w] += float64(len(f.rowsOf(s.body)))
		}
	}
	for i := range rows {
		rows[i] /= width.Seconds()
	}
	return median(rows)
}

// firstOK returns up to n successful samples, lowest body first.
func firstOK(samples []sample, n int) []sample {
	var ok []sample
	for _, s := range samples {
		if s.ok() {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].body < ok[j].body })
	return ok[:min(n, len(ok))]
}
