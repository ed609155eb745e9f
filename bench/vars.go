package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"prid/internal/obs"
)

// parseVars decodes a /debug/vars document and returns its prid_metrics
// snapshot (the obs registry every serving process publishes).
func parseVars(r io.Reader) (obs.Snapshot, error) {
	var doc struct {
		Metrics *obs.Snapshot `json:"prid_metrics"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	if doc.Metrics == nil {
		return obs.Snapshot{}, fmt.Errorf("/debug/vars has no prid_metrics")
	}
	return *doc.Metrics, nil
}

// scrapeVars fetches base/debug/vars.
func scrapeVars(ctx context.Context, client *http.Client, base string) (obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("scraping %s/debug/vars: %w", base, err)
	}
	defer resp.Body.Close() //pridlint:allow errdrop read path; parseVars surfaced any read error
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("scraping %s/debug/vars: status %d", base, resp.StatusCode)
	}
	return parseVars(resp.Body)
}

// counterDelta returns how much the named counter grew from a to b.
func counterDelta(a, b obs.Snapshot, name string) int64 {
	return b.Counters[name] - a.Counters[name]
}

// histDelta returns the observations the named histogram gained from a
// to b: their count and the sum of their values.
func histDelta(a, b obs.Snapshot, name string) (count int64, sum float64) {
	ha, hb := a.Histograms[name], b.Histograms[name]
	return hb.Count - ha.Count, hb.Sum - ha.Sum
}

// histMean returns the mean of the observations the named histogram
// gained from a to b (0 when it gained none).
func histMean(a, b obs.Snapshot, name string) float64 {
	n, sum := histDelta(a, b, name)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
