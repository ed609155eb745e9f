package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"prid"
	"prid/internal/rng"
)

// workload is one model, serving mode and traffic mix.
type workload struct {
	name    string
	dataset string
	dim     int
	binary  bool // serve the PRIDBIN1 artifact with --mode binary
	gateway bool // put `prid gateway` with one backend in front
	attack  bool // /v1/reconstruct instead of /v1/predict
	rows    int  // feature rows per request body
	// rate is the open-loop request rate, about 30% of the closed-loop
	// ceiling on a 2-core machine so latency is measured below the knee;
	// 0 means the workload has only a closed-loop phase. attack has none:
	// a lone reconstruction after an idle gap finds the 25.7 MB basis
	// evicted, and on a shared machine its open-loop p50 swung three
	// times as much between runs as its closed-loop p50.
	rate float64
	// ceiling is the closed-loop request rate measured on a 2-core
	// machine. It only sizes each closed-loop phase's share of the feed
	// (three times the ceiling, per two cores), so that no body repeats
	// within a phase unless a change triples throughput.
	ceiling float64
}

// The workloads and why each was chosen are listed in README.md and
// BENCHMARK.json.
var workloads = []workload{
	{name: "predict-float", dataset: "MNIST", dim: 4096, rows: 1, rate: 100, ceiling: 350},
	{name: "predict-binary", dataset: "MNIST", dim: 4096, binary: true, rows: 1, rate: 100, ceiling: 350},
	{name: "predict-batch", dataset: "MNIST", dim: 4096, rows: 64, ceiling: 16},
	{name: "predict-gateway", dataset: "ACTIVITY", dim: 512, gateway: true, rows: 1, rate: 200, ceiling: 800},
	{name: "attack", dataset: "MNIST", dim: 4096, attack: true, rows: 1, ceiling: 95},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

func (w workload) endpoint() string {
	if w.attack {
		return "reconstruct"
	}
	return "predict"
}

const (
	// modelName is the name every workload's model is served under.
	modelName = "bench"
	// warmup is the unrecorded lead-in of every workload.
	warmup = 2 * time.Second
	// batchPoolRows is how many distinct rows the multi-row bodies of
	// predict-batch are drawn from.
	batchPoolRows = 2048
)

// plan lays out a run's phases and returns them with the number of
// bodies they use. An untraced run has the warm-up, then an open-loop
// phase for 60% of seconds and a closed-loop phase for the rest (or one
// closed-loop phase for all of it). A traced run repeats those phases at
// half length, first untraced and then traced, so the two halves give
// the tracing overhead.
func plan(w workload, seconds float64, trace bool, workers int) ([]phase, int) {
	scale := max(1, float64(workers)/2)
	next := 0
	mk := func(name string, open bool, secs float64, traced bool) phase {
		d := time.Duration(secs * float64(time.Second))
		ph := phase{name: name, open: open, dur: d, first: next, traced: traced}
		if open {
			ph.rate = w.rate
			ph.count = int(math.Ceil(w.rate * secs))
		} else {
			ph.count = int(math.Ceil(3*w.ceiling*scale*secs)) + workers
		}
		next += ph.count
		return ph
	}
	main := func(secs float64, traced bool, suffix string) []phase {
		if w.rate > 0 {
			return []phase{mk("open"+suffix, true, 0.6*secs, traced), mk("closed"+suffix, false, 0.4*secs, traced)}
		}
		return []phase{mk("closed"+suffix, false, secs, traced)}
	}
	phases := []phase{mk("warmup", w.rate > 0, warmup.Seconds(), false)}
	if trace {
		phases = append(phases, main(seconds/2, false, "")...)
		phases = append(phases, main(seconds/2, true, "-traced")...)
	} else {
		phases = append(phases, main(seconds, false, "")...)
	}
	return phases, next
}

// feed holds a workload's request bodies. Rows are serialized once in
// set-up; body k is a fixed prefix, its rows' bytes and a suffix, so
// sending one costs a copy and no float formatting.
type feed struct {
	prefix, suffix []byte
	rowJSON        [][]byte
	// bodies lists each multi-row body's row indices; single-row body k
	// is row k.
	bodies [][]int
}

func newFeed(w workload, rows [][]float64, bodies int, seed uint64) (*feed, error) {
	f := &feed{suffix: []byte("}")}
	switch {
	case w.attack:
		f.prefix = []byte(`{"model":"` + modelName + `","query":`)
	case w.rows == 1:
		f.prefix = []byte(`{"model":"` + modelName + `","input":`)
	default:
		f.prefix = []byte(`{"model":"` + modelName + `","inputs":[`)
		f.suffix = []byte("]}")
		src := rng.New(seed ^ 0xb0d1e5)
		f.bodies = make([][]int, bodies)
		for k := range f.bodies {
			f.bodies[k] = src.Sample(len(rows), w.rows)
		}
	}
	f.rowJSON = make([][]byte, len(rows))
	for i, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return nil, fmt.Errorf("serializing row %d: %w", i, err)
		}
		f.rowJSON[i] = b
	}
	return f, nil
}

// rowsOf returns the pool indices of body k's rows.
func (f *feed) rowsOf(k int) []int {
	if f.bodies != nil {
		return f.bodies[k]
	}
	return []int{k}
}

// body appends body k to dst.
func (f *feed) body(dst []byte, k int) []byte {
	dst = append(dst, f.prefix...)
	for j, r := range f.rowsOf(k) {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f.rowJSON[r]...)
	}
	return append(dst, f.suffix...)
}

// The /v1 request and response shapes the benchmark sends and reads.
type (
	predictRequest struct {
		Model  string      `json:"model"`
		Inputs [][]float64 `json:"inputs,omitempty"`
		Input  []float64   `json:"input,omitempty"`
	}
	predictResponse struct {
		Model       string `json:"model"`
		Predictions []int  `json:"predictions"`
	}
	reconstructRequest struct {
		Model string    `json:"model"`
		Query []float64 `json:"query"`
	}
	reconstructResponse struct {
		Model      string    `json:"model"`
		Class      int       `json:"class"`
		Similarity float64   `json:"similarity"`
		Data       []float64 `json:"data"`
	}
)

// oracle holds a workload's inputs and the in-process answers the served
// outputs must equal.
type oracle struct {
	rows   [][]float64
	labels []int
	train  [][]float64
	// predict classifies rows with the in-process model loaded from the
	// served artifact (nil on attack).
	predict func([][]float64) ([]int, error)
	// attacker reconstructs with the in-process model (nil on predict).
	attacker *prid.Attacker
}

// checkResult is what the output checks found.
type checkResult struct {
	answers    int // predictions or reconstructions checked
	mismatches int
	accuracy   float64
	leakage    float64 // mean Δ of the reconstructions (attack only)
	firstErr   string
}

func (c *checkResult) mismatch(format string, args ...any) {
	if c.mismatches == 0 {
		c.firstErr = fmt.Sprintf(format, args...)
	}
	c.mismatches++
}

// identicalSubset is how many distinct attack queries are reconstructed
// again in-process and compared bit for bit.
const identicalSubset = 16

// check verifies every successful answer in results: each prediction
// must equal the in-process model's, and a fixed subset of
// reconstructions must be bit-identical to in-process ones. It also
// scores accuracy against the generator's labels and, on attack, the
// leakage Δ of every reconstruction.
func (o *oracle) check(f *feed, results []phaseResult) (checkResult, error) {
	var c checkResult
	if o.attacker != nil {
		return o.checkAttack(results)
	}
	type answer struct{ row, class int }
	var answers []answer
	for _, r := range results {
		for _, s := range r.samples {
			if !s.ok() {
				continue
			}
			var resp predictResponse
			if err := json.Unmarshal(s.resp, &resp); err != nil {
				c.mismatch("body %d: undecodable answer: %v", s.body, err)
				continue
			}
			rows := f.rowsOf(s.body)
			if len(resp.Predictions) != len(rows) {
				c.mismatch("body %d: %d predictions for %d rows", s.body, len(resp.Predictions), len(rows))
				continue
			}
			for j, row := range rows {
				answers = append(answers, answer{row, resp.Predictions[j]})
			}
		}
	}
	idx := map[int]int{}
	var uniq [][]float64
	for _, a := range answers {
		if _, ok := idx[a.row]; !ok {
			idx[a.row] = len(uniq)
			uniq = append(uniq, o.rows[a.row])
		}
	}
	if len(uniq) == 0 {
		return c, fmt.Errorf("no successful predictions to check")
	}
	want, err := o.predict(uniq)
	if err != nil {
		return c, fmt.Errorf("in-process predict: %w", err)
	}
	correct := 0
	for _, a := range answers {
		if w := want[idx[a.row]]; a.class != w {
			c.mismatch("row %d: served class %d, in-process class %d", a.row, a.class, w)
		}
		if a.class == o.labels[a.row] {
			correct++
		}
	}
	c.answers = len(answers)
	c.accuracy = float64(correct) / float64(len(answers))
	return c, nil
}

func (o *oracle) checkAttack(results []phaseResult) (checkResult, error) {
	var c checkResult
	var leak float64
	correct := 0
	byBody := map[int]reconstructResponse{}
	for _, r := range results {
		for _, s := range r.samples {
			if !s.ok() {
				continue
			}
			var resp reconstructResponse
			if err := json.Unmarshal(s.resp, &resp); err != nil {
				c.mismatch("body %d: undecodable answer: %v", s.body, err)
				continue
			}
			query := o.rows[s.body]
			if len(resp.Data) != len(query) {
				c.mismatch("body %d: reconstruction has %d features, want %d", s.body, len(resp.Data), len(query))
				continue
			}
			c.answers++
			if resp.Class == o.labels[s.body] {
				correct++
			}
			d, err := prid.MeasureLeakage(o.train, query, resp.Data)
			if err != nil {
				return c, fmt.Errorf("measuring leakage: %w", err)
			}
			leak += d
			byBody[s.body] = resp
		}
	}
	if c.answers == 0 {
		return c, fmt.Errorf("no successful reconstructions to check")
	}
	// The subset is the lowest-numbered answered bodies, so it does not
	// depend on which worker finished first.
	bodies := make([]int, 0, len(byBody))
	for b := range byBody {
		bodies = append(bodies, b)
	}
	sort.Ints(bodies)
	for _, b := range bodies[:min(identicalSubset, len(bodies))] {
		want, err := o.attacker.Reconstruct(o.rows[b])
		if err != nil {
			return c, fmt.Errorf("in-process reconstruct: %w", err)
		}
		if diff := reconDiff(want, byBody[b]); diff != "" {
			c.mismatch("body %d: %s", b, diff)
		}
	}
	c.accuracy = float64(correct) / float64(c.answers)
	c.leakage = leak / float64(c.answers)
	return c, nil
}

// reconDiff describes the first difference between an in-process
// reconstruction and a served one, or returns "" when they are
// bit-identical.
func reconDiff(want prid.Reconstruction, got reconstructResponse) string {
	if want.Class != got.Class {
		return fmt.Sprintf("served class %d, in-process %d", got.Class, want.Class)
	}
	if math.Float64bits(want.Similarity) != math.Float64bits(got.Similarity) {
		return fmt.Sprintf("served similarity %s, in-process %s", fmtBits(got.Similarity), fmtBits(want.Similarity))
	}
	for j := range want.Data {
		if math.Float64bits(want.Data[j]) != math.Float64bits(got.Data[j]) {
			return fmt.Sprintf("feature %d: served %s, in-process %s", j, fmtBits(got.Data[j]), fmtBits(want.Data[j]))
		}
	}
	return ""
}

func fmtBits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
