package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"prid/internal/obs"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPlanIsDeterministicAndPartitionsTheFeed(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			a, na := plan(w, 10, trace, 2)
			b, nb := plan(w, 10, trace, 2)
			if !reflect.DeepEqual(a, b) || na != nb {
				t.Fatalf("%s trace=%v: plan differs between calls", w.name, trace)
			}
			next := 0
			for _, ph := range a {
				if ph.first != next || ph.count <= 0 {
					t.Fatalf("%s: phase %s owns [%d, +%d), want to start at %d", w.name, ph.name, ph.first, ph.count, next)
				}
				next += ph.count
			}
			if next != na {
				t.Fatalf("%s: phases use %d bodies, plan reports %d", w.name, next, na)
			}
		}
	}
	phases, _ := plan(mustWorkload(t, "predict-float"), 10, false, 2)
	open := phases[1]
	if !open.open || open.count != 600 {
		t.Fatalf("open phase = %+v, want 600 requests at 100 rps over 6 s", open)
	}
	for i := 0; i < open.count; i++ {
		if d := open.due(i) - time.Duration(i)*10*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("request %d due at %v, want %v", i, open.due(i), time.Duration(i)*10*time.Millisecond)
		}
	}
}

func testRows(n, features int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, features)
		for j := range rows[i] {
			rows[i][j] = float64(i*features+j) / 7
		}
	}
	return rows
}

func TestFeedBodiesDependOnlyOnTheSeed(t *testing.T) {
	w := mustWorkload(t, "predict-batch")
	rows := testRows(200, 3)
	a, err := newFeed(w, rows, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newFeed(w, rows, 40, 7)
	c, _ := newFeed(w, rows, 40, 8)
	if !reflect.DeepEqual(a.bodies, b.bodies) {
		t.Fatal("same seed gave different bodies")
	}
	if reflect.DeepEqual(a.bodies, c.bodies) {
		t.Fatal("different seeds gave the same bodies")
	}
	seen := map[string]bool{}
	for k := range a.bodies {
		body := string(a.body(nil, k))
		if seen[body] {
			t.Fatalf("body %d repeats an earlier body", k)
		}
		seen[body] = true
		var req predictRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("body %d is not a predict request: %v", k, err)
		}
		for j, r := range a.rowsOf(k) {
			if !reflect.DeepEqual(req.Inputs[j], rows[r]) {
				t.Fatalf("body %d row %d does not round-trip", k, j)
			}
		}
	}
	single, _ := newFeed(mustWorkload(t, "attack"), rows, 0, 7)
	var req reconstructRequest
	if err := json.Unmarshal(single.body(nil, 5), &req); err != nil || !reflect.DeepEqual(req.Query, rows[5]) {
		t.Fatalf("attack body 5 = %+v (%v), want query row 5", req, err)
	}
}

func samplesMS(okMS []int, failures int) []sample {
	var out []sample
	for _, v := range okMS {
		out = append(out, sample{done: time.Duration(v) * time.Millisecond, status: http.StatusOK})
	}
	for i := 0; i < failures; i++ {
		out = append(out, sample{done: time.Millisecond, status: http.StatusServiceUnavailable})
	}
	return out
}

func TestPercentilesCountFailuresAsInfinite(t *testing.T) {
	ok := make([]int, 95)
	for i := range ok {
		ok[i] = i + 1
	}
	st := summarize(samplesMS(ok, 5))
	if st.p50 != 50 || st.p90 != 90 || !math.IsInf(st.p99, 1) || st.failed != 5 {
		t.Fatalf("95 ok + 5 failed: %v, want p50=50 p90=90 p99=+Inf failed=5", st)
	}
	st = summarize(samplesMS(ok[:85], 15))
	if !math.IsInf(st.p90, 1) || st.p50 != 50 {
		t.Fatalf("85 ok + 15 failed: %v, want p50=50 p90=+Inf", st)
	}
	if finite(st.p90) != math.MaxFloat64 {
		t.Fatal("finite(+Inf) must be JSON-encodable")
	}
	if _, err := json.Marshal(finite(st.p90)); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedPercentileIgnoresOneSlowStretch(t *testing.T) {
	// 1000 requests over 10 s: 20 ms each, except a 2 s stretch at 60 ms
	// and one failure. The phase-wide p90 lands in the stretch; the median
	// of the five windows' p90s does not.
	ph := phase{dur: 10 * time.Second}
	var samples []sample
	for i := 0; i < 1000; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		lat := 20 * time.Millisecond
		if due >= 4*time.Second && due < 6*time.Second {
			lat = 60 * time.Millisecond
		}
		s := sample{due: due, done: due + lat, status: http.StatusOK}
		if i == 10 {
			s.status = http.StatusServiceUnavailable
		}
		samples = append(samples, s)
	}
	r := phaseResult{phase: ph, samples: samples}
	if got := percentile(latencies(samples), 0.90); got != 60 {
		t.Fatalf("phase-wide p90 = %v, want 60 (the slow stretch)", got)
	}
	if got := windowedPercentile(r, 0.90); got != 20 {
		t.Fatalf("windowed p90 = %v, want 20", got)
	}
	// Fewer than 2·minWindowSamples samples: one window, the plain percentile.
	r.samples = samples[:150]
	if got, want := windowedPercentile(r, 0.50), percentile(latencies(samples[:150]), 0.50); got != want {
		t.Fatalf("one-window p50 = %v, want %v", got, want)
	}
	if _, m, _ := quartiles([]float64{1, math.Inf(1), 2}); m != 2 {
		t.Fatalf("median with +Inf = %v, want 2", m)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
	}{
		{100, 0.90, 10}, {99, 0.90, 9}, {1000, 0.99, 10}, {999, 0.99, 9},
		{600, 0.99, 6}, {20, 0.50, 10}, {0, 0.50, 0},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	for _, n := range []int{11, 99, 100, 101, 600, 999, 1000, 12345} {
		q := highestSupported(n)
		if beyond(n, q) != minBeyond {
			t.Errorf("n=%d: highest supported quantile %v has %d samples beyond, want %d", n, q, beyond(n, q), minBeyond)
		}
	}
	if highestSupported(100) != 0.9 || highestSupported(1000) != 0.99 || highestSupported(10) != 0 {
		t.Errorf("highestSupported(100, 1000, 10) = %v, %v, %v; want 0.9, 0.99, 0",
			highestSupported(100), highestSupported(1000), highestSupported(10))
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.data)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, m, q3, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfDirectChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: the union [10, 50] counts once
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out: only [90, 100] counts
		{Name: "g", ID: 5, Parent: 2, Start: 12, End: 28},  // grandchild: only a's self time shrinks
		{Name: "root", ID: 6, Start: 200, End: 210},
	}
	self, count := selfTimes(spans)
	want := map[string]int64{"root": 50 + 10, "a": 4, "b": 30, "c": 30, "g": 16}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self = %v, want %v", self, want)
	}
	if count["root"] != 2 || meanSelf(self, count, "a", "root") != 0.002 {
		t.Fatalf("count = %v, mean a per root = %v µs", count, meanSelf(self, count, "a", "root"))
	}
}

func varsDoc(t *testing.T, s obs.Snapshot) []byte {
	t.Helper()
	doc, err := json.Marshal(map[string]any{
		"cmdline":      []string{"prid", "serve"},
		"memstats":     map[string]int{"Alloc": 1},
		"prid_metrics": s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestVarsDeltasFromCapturedSnapshots(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("serve.predict.requests").Add(3)
	h := reg.Histogram("serve.predict.seconds", nil)
	h.Observe(0.002)
	before, err := parseVars(bytes.NewReader(varsDoc(t, reg.Snapshot())))
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("serve.predict.requests").Add(2)
	h.Observe(0.004)
	h.Observe(0.006)
	after, err := parseVars(bytes.NewReader(varsDoc(t, reg.Snapshot())))
	if err != nil {
		t.Fatal(err)
	}
	if d := counterDelta(before, after, "serve.predict.requests"); d != 2 {
		t.Fatalf("counter delta = %d, want 2", d)
	}
	n, sum := histDelta(before, after, "serve.predict.seconds")
	if n != 2 || math.Abs(sum-0.010) > 1e-12 || math.Abs(histMean(before, after, "serve.predict.seconds")-0.005) > 1e-12 {
		t.Fatalf("histogram delta = %d obs, sum %v", n, sum)
	}
	if histMean(before, after, "serve.batch.queue_seconds") != 0 || counterDelta(before, after, "serve.rejected") != 0 {
		t.Fatal("a metric absent from both snapshots must read as no change")
	}
	if _, err := parseVars(bytes.NewReader([]byte(`{"cmdline":[]}`))); err == nil {
		t.Fatal("a document without prid_metrics must be an error")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		a, b []float64
		m    boundSpec
		want string
	}{
		{"same", steady, scale(steady, 1.02), lower, verdictOK},
		{"slower beyond the bound", steady, scale(steady, 1.2), lower, verdictWorse},
		{"faster", steady, scale(steady, 0.7), lower, verdictOK},
		{"spread wider than the bound", []float64{5, 10, 15, 10, 20}, steady, lower, verdictUnresolved},
		{"wide but every run better", []float64{20, 25, 30, 35, 40}, []float64{1, 2, 3, 4, 5}, lower, verdictOK},
		{"throughput drop", scale(steady, 100), scale(steady, 80), higher, verdictWorse},
		{"throughput gain", scale(steady, 100), scale(steady, 120), higher, verdictOK},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricSpec
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range s.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, code = %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, code = %v", layers, perLayer)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads = %v, code = %v", names, code)
	}
}
