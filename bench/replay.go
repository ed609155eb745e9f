package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"prid"
	"prid/internal/hdc"
	"prid/internal/obs"
	"prid/internal/serve/engine"
)

// The batcher settings the replay uses: `prid serve`'s default
// --batch-window and --batch-max.
const (
	replayWindow   = 2 * time.Millisecond
	replayBatchMax = 32
)

// How much the replay and the probes do per workload.
const (
	replayRequests    = 200 // single-row requests replayed
	replayMultiRow    = 16  // multi-row or attack requests replayed
	probeRows         = 200 // rows each kernel probe encodes or classifies
	probePasses       = 3   // passes per kernel probe; the median pass counts
	probeQueueRows    = 32  // lone rows pushed through a fresh batcher
	probeReconstructs = 8   // reconstructions by the attack probe
)

// replayer re-runs a workload's requests in-process through the layers'
// public functions, loaded from the served artifact, and times each layer
// with spans.
type replayer struct {
	w      workload
	tr     *tracer
	basis  *hdc.Basis
	model  *hdc.Model
	packed *hdc.PackedBasis
	bin    *hdc.BinaryModel
	// attacker is built on the facade model, loaded with prid.LoadFile so
	// its decoder factorization can be timed.
	attacker *prid.Attacker

	// The replay submits one request at a time, so the batch function
	// (run on the batcher's goroutine after each submission) finds its
	// parent span and the open queue span here.
	parent int64
	queue  int64
	reqID  string

	layers map[string]float64
}

// newReplayer loads the float artifact at path into the hdc layer types
// and, timed, into the facade: prid.LoadFile (whose least-squares
// factorization shows as decode.ls_factor_ms) and prid.NewAttacker.
func newReplayer(w workload, tr *tracer, path string) (*replayer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //pridlint:allow errdrop read-only artifact; ReadBasis and ReadModel surfaced any read error
	basis, err := hdc.ReadBasis(f)
	if err != nil {
		return nil, fmt.Errorf("reading basis: %w", err)
	}
	model, err := hdc.ReadModel(f)
	if err != nil {
		return nil, fmt.Errorf("reading model: %w", err)
	}
	r := &replayer{w: w, tr: tr, basis: basis, model: model,
		packed: hdc.PackBasis(basis), bin: hdc.Binarize(model), layers: map[string]float64{}}

	factor := obs.GetHistogram("decode.ls_factor.seconds", nil)
	before := factor.Sum()
	float, err := prid.LoadFile(path)
	if err != nil {
		return nil, err
	}
	r.layers["decode.ls_factor_ms"] = (factor.Sum() - before) * 1e3
	start := time.Now()
	if r.attacker, err = prid.NewAttacker(float); err != nil {
		return nil, err
	}
	r.layers["attack.new_attacker_ms"] = ms(time.Since(start))
	return r, nil
}

// classify encodes and classifies rows the way the served model does
// (packed encode and Hamming classify in binary mode). Under a parent
// span it records one span per layer and row; with parent 0 it records
// none.
func (r *replayer) classify(rows [][]float64, parent int64, reqID string) []int {
	timed := func(name string, fn func()) {
		if parent == 0 {
			fn()
			return
		}
		sp := r.tr.start(name, parent, reqID)
		fn()
		r.tr.end(sp)
	}
	out := make([]int, len(rows))
	h := make([]float64, r.basis.Dim())
	dists := make([]int, r.bin.NumClasses())
	q := make([]uint64, r.bin.Words())
	for i, row := range rows {
		if r.w.binary {
			timed("hdc.packed_encode", func() { r.packed.EncodeInto(h, row) })
			timed("hdc.hamming", func() { out[i] = r.bin.ClassifyInto(dists, q, h) })
			continue
		}
		timed("hdc.encode", func() { r.basis.EncodeInto(h, row) })
		timed("hdc.classify", func() { out[i], _ = r.model.Classify(h) })
	}
	return out
}

// batchFn is the replay batcher's batch function: it closes the pending
// queue span and classifies the batch under an engine.batch span.
func (r *replayer) batchFn(rows [][]float64) ([]int, error) {
	if r.queue != 0 {
		r.tr.end(r.queue)
		r.queue = 0
	}
	sp := r.tr.start("engine.batch", r.parent, r.reqID)
	defer r.tr.end(sp)
	return r.classify(rows, sp, r.reqID), nil
}

// replayStats is what the request replay measured.
type replayStats struct {
	requests   int
	mismatches int
	firstErr   string
	// stageSumMS is the mean per-request duration of the replayed
	// stages, printed beside the live serve.handler_ms.
	stageSumMS float64
}

// replay re-runs the given live requests in-process: JSON decode,
// validation, the batcher or the attack, and JSON encode of the answer.
// Every replayed answer must equal the live one.
func (r *replayer) replay(ctx context.Context, f *feed, samples []sample) (replayStats, error) {
	var st replayStats
	b := engine.NewBatcher(r.batchFn, replayWindow, replayBatchMax)
	defer b.Close()
	var total int64
	for i, s := range samples {
		body := f.body(nil, s.body)
		r.reqID = fmt.Sprintf("replay-%d", i)
		root := r.tr.start("replay", 0, r.reqID)
		var diff string
		var err error
		if r.w.attack {
			diff, err = r.replayAttack(root, body, s.resp)
		} else {
			diff, err = r.replayPredict(ctx, b, root, body, s.resp)
		}
		if err != nil {
			return st, fmt.Errorf("replaying body %d: %w", s.body, err)
		}
		r.tr.end(root)
		if diff != "" {
			if st.mismatches == 0 {
				st.firstErr = fmt.Sprintf("body %d: %s", s.body, diff)
			}
			st.mismatches++
		}
		st.requests++
	}
	spans := r.tr.snapshot()
	for _, sp := range spans {
		if sp.Name == "replay" {
			total += sp.End - sp.Start
		}
	}
	if st.requests > 0 {
		st.stageSumMS = float64(total) / 1e6 / float64(st.requests)
	}
	self, count := selfTimes(spans)
	r.layers["serve.decode_json_us"] = meanSelf(self, count, "serve.decode_json", "replay")
	r.layers["serve.encode_json_us"] = meanSelf(self, count, "serve.encode_json", "replay")
	return st, nil
}

func (r *replayer) replayPredict(ctx context.Context, b *engine.Batcher, root int64, body, live []byte) (string, error) {
	sp := r.tr.start("serve.decode_json", root, r.reqID)
	var req predictRequest
	err := json.Unmarshal(body, &req)
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	rows, field := req.Inputs, "inputs"
	if len(rows) == 0 {
		rows, field = [][]float64{req.Input}, "input"
	}
	sp = r.tr.start("engine.validate", root, r.reqID)
	err = engine.CheckFiniteRows(rows, field)
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	var classes []int
	if len(rows) >= replayBatchMax {
		sp = r.tr.start("engine.batch", root, r.reqID)
		classes = r.classify(rows, sp, r.reqID)
		r.tr.end(sp)
	} else {
		r.parent = root
		r.queue = r.tr.start("engine.queue", root, r.reqID)
		if classes, err = predictRows(ctx, b, rows); err != nil {
			return "", err
		}
	}
	sp = r.tr.start("serve.encode_json", root, r.reqID)
	_, err = json.Marshal(predictResponse{Model: req.Model, Predictions: classes})
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	var got predictResponse
	if err := json.Unmarshal(live, &got); err != nil {
		return "", fmt.Errorf("decoding live answer: %w", err)
	}
	for j := range classes {
		if j >= len(got.Predictions) || got.Predictions[j] != classes[j] {
			return fmt.Sprintf("row %d: replay class %d, live answer %v", j, classes[j], got.Predictions), nil
		}
	}
	return "", nil
}

// predictRows submits each row to the batcher from its own goroutine, as
// the engine does for requests smaller than a batch.
func predictRows(ctx context.Context, b *engine.Batcher, rows [][]float64) ([]int, error) {
	out := make([]int, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, row := range rows {
		wg.Add(1)
		go func(i int, row []float64) {
			defer wg.Done()
			out[i], errs[i] = b.Predict(ctx, row)
		}(i, row)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (r *replayer) replayAttack(root int64, body, live []byte) (string, error) {
	sp := r.tr.start("serve.decode_json", root, r.reqID)
	var req reconstructRequest
	err := json.Unmarshal(body, &req)
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	sp = r.tr.start("engine.validate", root, r.reqID)
	err = engine.CheckFiniteRow(req.Query, "query")
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	sp = r.tr.start("attack.reconstruct", root, r.reqID)
	rec, err := r.attacker.Reconstruct(req.Query)
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	sp = r.tr.start("serve.encode_json", root, r.reqID)
	//pridlint:allow leaksurface times the /v1/reconstruct answer's encoding, as the endpoint itself emits it; the bytes are discarded
	_, err = json.Marshal(reconstructResponse{Model: req.Model, Class: rec.Class, Similarity: rec.Similarity, Data: rec.Data})
	r.tr.end(sp)
	if err != nil {
		return "", err
	}
	var got reconstructResponse
	if err := json.Unmarshal(live, &got); err != nil {
		return "", fmt.Errorf("decoding live answer: %w", err)
	}
	return reconDiff(rec, got), nil
}

// probe times every kernel layer on the workload's own rows, whether or
// not the workload's requests reach it, so each per-layer metric exists
// on every workload; on a workload that does not use a layer the number
// is a control that a change to that layer should not move.
func (r *replayer) probe(ctx context.Context, rows [][]float64) error {
	queries := rows[:min(probeReconstructs, len(rows))]
	rows = rows[:min(probeRows, len(rows))]
	d := r.basis.Dim()
	h := make([][]float64, len(rows))
	for i := range h {
		h[i] = make([]float64, d)
	}
	perRowUS := func(fn func(i int)) float64 {
		passes := make([]float64, probePasses)
		for p := range passes {
			start := time.Now()
			for i := range rows {
				fn(i)
			}
			passes[p] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(rows))
		}
		return median(passes)
	}
	r.layers["hdc.packed_encode_us_per_row"] = perRowUS(func(i int) { r.packed.EncodeInto(h[i], rows[i]) })
	r.layers["hdc.encode_us_per_row"] = perRowUS(func(i int) { r.basis.EncodeInto(h[i], rows[i]) })
	r.layers["hdc.classify_us_per_row"] = perRowUS(func(i int) { r.model.Classify(h[i]) })
	dists := make([]int, r.bin.NumClasses())
	q := make([]uint64, r.bin.Words())
	r.layers["hdc.hamming_us_per_row"] = perRowUS(func(i int) { r.bin.ClassifyInto(dists, q, h[i]) })

	nnz := 0
	for _, row := range rows {
		for _, v := range row {
			if v != 0 { //pridlint:allow floateq counts exactly the features encode skips
				nnz++
			}
		}
	}
	n := float64(r.basis.Features())
	perRow := float64(nnz) / float64(len(rows))
	r.layers["hdc.nonzero_share"] = perRow / n
	flops := 2 * perRow * float64(d)
	bytes, encodeUS := perRow*float64(d)*8, r.layers["hdc.encode_us_per_row"]
	if r.w.binary {
		bytes, encodeUS = perRow*math.Ceil(float64(d)/64)*8, r.layers["hdc.packed_encode_us_per_row"]
	}
	r.layers["vecmath.encode_flops_per_row"] = flops
	r.layers["vecmath.encode_bytes_per_row"] = bytes
	r.layers["vecmath.encode_gflops"] = flops / (encodeUS * 1e3)

	queue, err := r.probeQueue(ctx, rows)
	if err != nil {
		return err
	}
	r.layers["engine.queue_ms"] = queue
	return r.probeAttack(queries)
}

// probeQueue pushes lone rows one at a time through a fresh batcher and
// returns the mean wait in milliseconds from submission to the start of
// the batch function: what the batch window charges a request that finds
// no companions.
func (r *replayer) probeQueue(ctx context.Context, rows [][]float64) (float64, error) {
	var started time.Time
	b := engine.NewBatcher(func(x [][]float64) ([]int, error) {
		started = time.Now()
		return r.classify(x, 0, ""), nil
	}, replayWindow, replayBatchMax)
	defer b.Close()
	waits := make([]float64, 0, probeQueueRows)
	for i := 0; i < probeQueueRows && i < len(rows); i++ {
		submit := time.Now()
		if _, err := b.Predict(ctx, rows[i]); err != nil {
			return 0, err
		}
		waits = append(waits, ms(started.Sub(submit)))
	}
	var sum float64
	for _, w := range waits {
		sum += w
	}
	return sum / float64(len(waits)), nil
}

// probeAttack reconstructs the queries with the float model and records
// the mean time and the attack's work counters per reconstruction.
func (r *replayer) probeAttack(queries [][]float64) error {
	counters := []struct{ metric, counter string }{
		{"attack.feature_passes_per_recon", "attack.feature_passes"},
		{"attack.dimension_passes_per_recon", "attack.dimension_passes"},
		{"decode.vectors_per_recon", "decode.vectors"},
	}
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = obs.GetCounter(c.counter).Value()
	}
	start := time.Now()
	for _, q := range queries {
		if _, err := r.attacker.Reconstruct(q); err != nil {
			return fmt.Errorf("probe reconstruct: %w", err)
		}
	}
	r.layers["attack.reconstruct_ms"] = ms(time.Since(start)) / float64(len(queries))
	for i, c := range counters {
		r.layers[c.metric] = float64(obs.GetCounter(c.counter).Value()-before[i]) / float64(len(queries))
	}
	return nil
}
