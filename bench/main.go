// Command bench is the repository's end-to-end benchmark. It builds
// cmd/prid from the tree, trains each workload's model in-process from
// the seed, spawns real `prid serve` (and `prid gateway`) processes with
// default tuning flags, drives them over HTTP from this one process,
// checks every answer against the in-process library, and prints each
// end-to-end metric by name and unit. With -trace 1 it repeats the
// phases with request spans, replays requests in-process through the
// layers' public functions, and prints the per-layer metrics instead.
//
// The last line of standard output is one JSON object per workload:
//
//	{"correct":true,"attempted":1234,"failed":0,"metrics":{"p50_ms":{"value":5.9,"unit":"ms"},...}}
//
// Run it from the repository root through bench/run.sh, which keeps the
// build inside .bench_build/:
//
//	bash bench/run.sh -workload predict-float -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -seed 1 -out results/a        # all five workloads
//	bash bench/run.sh compare results/a results/b   # verdicts from BENCHMARK.json bounds
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricSpec names a metric and its unit. The tables below must match
// BENCHMARK.json (a test checks this).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the served model sees; only they
// gate a change.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"accuracy", "fraction"},
	{"rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics; they explain a change
// and never gate one.
var perLayer = []metricSpec{
	{"bench.late_p99_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.net_ms", "ms"},
	{"serve.decode_json_us", "us"},
	{"serve.encode_json_us", "us"},
	{"engine.queue_ms", "ms"},
	{"hdc.encode_us_per_row", "us"},
	{"hdc.packed_encode_us_per_row", "us"},
	{"hdc.classify_us_per_row", "us"},
	{"hdc.hamming_us_per_row", "us"},
	{"hdc.nonzero_share", "fraction"},
	{"vecmath.encode_flops_per_row", "flop"},
	{"vecmath.encode_bytes_per_row", "B"},
	{"vecmath.encode_gflops", "Gflop/s"},
	{"prid.load_ms", "ms"},
	{"decode.ls_factor_ms", "ms"},
	{"attack.new_attacker_ms", "ms"},
	{"attack.reconstruct_ms", "ms"},
	{"attack.feature_passes_per_recon", "count"},
	{"attack.dimension_passes_per_recon", "count"},
	{"decode.vectors_per_recon", "count"},
	{"obs.trace_overhead_pct", "%"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root, holding go.mod and cmd/prid")
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for the data, the models and the request order")
	seconds := fs.Int("seconds", 15, "measured seconds per workload (after a 2 s warm-up)")
	trace := fs.Int("trace", 0, "1: traced run that prints the per-layer metrics")
	out := fs.String("out", "", "append each result to DIR/<workload>.jsonl; traced runs also write DIR/trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return compare(fs.Args()[1:], filepath.Join(*root, "BENCHMARK.json"), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 || *seconds > 120 {
		return fmt.Errorf("-seconds %d out of range [1, 120]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildPrid(ctx, *root)
	if err != nil {
		return err
	}
	e := env{prid: bin, work: filepath.Join(*root, ".bench_build", "work"), workers: runtime.NumCPU(),
		seed: *seed, seconds: *seconds, trace: *trace == 1}
	failed := 0
	for _, w := range ws {
		res, spans, err := runWorkload(ctx, e, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if *out != "" {
			if err := save(*out, res, spans); err != nil {
				return err
			}
		}
		if err := printResult(stdout, res); err != nil {
			return err
		}
		if !res.Correct {
			failed++
		}
	}
	if failed > 0 {
		return errors.New("output checks failed (see the FAILED lines above)")
	}
	return nil
}

// printResult prints a result for a reader, then its JSON line.
func printResult(out io.Writer, r *result) error {
	var w strings.Builder
	fmt.Fprintf(&w, "workload %s  seed %d  seconds %d  trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(&w, "  %-34s %14.6g %s\n", m.name, r.Metrics[m.name].Value, m.unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&w, "  info %-29s %14.6g\n", k, r.Info[k])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&w, "  FAILED: %s\n", p)
	}
	//pridlint:allow leaksurface the benchmark's report: aggregate metrics, no class rows or reconstructions
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	_, err = io.WriteString(out, w.String())
	return err
}

// save appends the result to dir/<workload>.jsonl and writes the trace
// file of a traced run.
func save(dir string, r *result, spans []span) error {
	line, err := json.Marshal(r) //pridlint:allow leaksurface the benchmark's report: aggregate metrics, no class rows or reconstructions
	if err != nil {
		return err
	}
	//pridlint:allow atomicwrite append-only result log: a torn last line loses only the run that was cut off
	f, err := os.OpenFile(filepath.Join(dir, r.Workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //pridlint:allow errdrop the write error is the one reported
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return writeTrace(dir, r.Workload, r.Seed, spans)
}
