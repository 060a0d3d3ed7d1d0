package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series is one /v1/metrics exposition: sample line ("name{labels}") to
// value.
type series map[string]float64

// parseProm reads Prometheus text exposition format, skipping comments.
func parseProm(text string) (series, error) {
	s := series{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed sample line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// sum adds every sample of the named metric whose label set contains
// each of the given `key="value"` pairs.
func (s series) sum(name string, labels ...string) float64 {
	var total float64
	for key, v := range s {
		n, l, _ := strings.Cut(key, "{")
		if n != name {
			continue
		}
		match := true
		for _, want := range labels {
			if !strings.Contains(l, want) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// minus returns s − base for every sample of s: the window delta of
// counters and histogram sums/counts.
func (s series) minus(base series) series {
	d := make(series, len(s))
	for k, v := range s {
		d[k] = v - base[k]
	}
	return d
}

// add accumulates o into s (summing daemons).
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// scrape fetches one daemon's /v1/metrics.
func scrape(ctx context.Context, url string) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/metrics: %s", url, resp.Status)
	}
	return parseProm(string(body))
}

// scrapeAll scrapes every daemon of the deployment, keyed by daemon name.
func (dep *deployment) scrapeAll(ctx context.Context) (map[string]series, error) {
	out := map[string]series{}
	for _, d := range dep.daemons {
		s, err := scrape(ctx, d.url)
		if err != nil {
			return nil, err
		}
		out[d.name] = s
	}
	return out, nil
}
