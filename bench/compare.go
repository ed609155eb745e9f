package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// spec is the part of BENCHMARK.json that compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// boundSpec is one gated metric: how much worse its median may get,
// as a share of the first side's median, before a change is a
// regression.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads every untraced result in dir/*.jsonl, by workload.
func loadRuns(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.jsonl results in %s (write them with -out)", dir)
	}
	runs := map[string][]*result{}
	for _, p := range paths {
		if err := readRuns(p, runs); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func readRuns(path string, into map[string][]*result) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //pridlint:allow errdrop read-only results file; the scanner surfaced any read error
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			into[r.Workload] = append(into[r.Workload], &r)
		}
	}
	return sc.Err()
}

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of side b against those of side a for one
// metric. The change is worse when b's median is worse than a's by more
// than the bound. When either side's quartile spread is wider than the
// bound the runs cannot resolve a change of that size: the verdict is
// unresolved, unless every run of b reads better than every run of a.
func judge(a, b []float64, m boundSpec) (verdict string, change float64) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / math.Abs(ma)
	worsening := change
	if m.Better == "higher" {
		worsening = -change
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(a, b, m.Better == "higher") {
			return verdictOK, change
		}
		return verdictUnresolved, change
	}
	if worsening > m.Bound {
		return verdictWorse, change
	}
	return verdictOK, change
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}

// compare prints, for each workload and end-to-end metric, both sides'
// median and quartiles and a verdict from the BENCHMARK.json bounds,
// then one summary row per workload. It fails when any pair is worse.
func compare(args []string, defaultSpec string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", defaultSpec, "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-spec BENCHMARK.json] DIR_A DIR_B")
	}
	s, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	var w strings.Builder
	fmt.Fprintf(&w, "%-16s %-12s %5s %32s %32s %8s  %s\n", "workload", "metric", "bound", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	worse := 0
	for _, wl := range s.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(&w, "%-16s missing runs (A %d, B %d)\n", wl.Name, len(ra), len(rb))
			continue
		}
		counts := map[string]int{}
		for _, m := range s.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(&w, "%-16s %-12s missing\n", wl.Name, m.Name)
				continue
			}
			v, change := judge(va, vb, m)
			counts[v]++
			fmt.Fprintf(&w, "%-16s %-12s %5.2f %32s %32s %+7.1f%%  %s\n", wl.Name, m.Name, m.Bound,
				quartileText(va), quartileText(vb), change*100, v)
		}
		summary := verdictOK
		switch {
		case counts[verdictWorse] > 0:
			summary = verdictWorse
		case counts[verdictUnresolved] > 0:
			summary = verdictUnresolved
		}
		worse += counts[verdictWorse]
		fmt.Fprintf(&w, "== %-13s %s (runs A %d, B %d; ok %d, worse %d, unresolved %d)\n", wl.Name, summary,
			len(ra), len(rb), counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	}
	if _, err := io.WriteString(out, w.String()); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pair(s) worse beyond their bound", worse)
	}
	return nil
}

// values collects one metric across runs.
func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func quartileText(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}
