package main

import (
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics --trace 0 reports; BENCHMARK.json lists them
// with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "steps/s"},
	{"step_p50_ms", "ms"},
	{"step_p99_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"disk_bytes_per_doc_byte", "ratio"},
	{"daemon_rss_mb", "MiB"},
}

// perLayer are the metrics --trace 1 reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"aea.execute_ms", "ms"},
		{"aea.verify_sigs_per_step", "count"},
		{"aea.decrypt_elements_per_step", "count"},
		{"httpapi.retrieve_ms", "ms"},
		{"httpapi.store_ms", "ms"},
		{"httpapi.tfc_ms", "ms"},
		{"httpapi.server_ms.store", "ms"},
		{"httpapi.server_ms.retrieve", "ms"},
		{"httpapi.server_ms.tfc_process", "ms"},
		{"httpapi.server_ms.statistics", "ms"},
		{"httpapi.server_ms.worklist", "ms"},
		{"stats_p50_ms", "ms"},
		{"worklist_p50_ms", "ms"},
		{"httpapi.requests_per_step", "count"},
		{"httpapi.failed_per_step", "count"},
		{"dsig.verify_ops_per_step", "count"},
		{"dsig.sign_ops_per_step", "count"},
		{"dsig.cache_hit_ratio", "ratio"},
		{"dsig.pool_wait_ms", "ms"},
		{"xmltree.memo_hit_ratio", "ratio"},
		{"xmlenc.encrypt_ops_per_step", "count"},
		{"xmlenc.decrypt_ops_per_step", "count"},
		{"tfc.verify_ms", "ms"},
		{"tfc.encrypt_sign_ms", "ms"},
		{"pool.wal_bytes_per_doc_byte", "ratio"},
		{"pool.wal_fsyncs_per_step", "count"},
		{"pool.scan_cells_per_read", "count"},
		{"poolcluster.writes_per_step", "count"},
		{"poolcluster.max_lag", "count"},
		{"relay.attempts_per_delivery", "ratio"},
		{"relay.queue_depth_max", "count"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self." + l, "share"})
	}
	return append(defs,
		metricDef{"self.relay_async", "share"},
		metricDef{"trace.self_share_sum", "share"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// selfTolerance bounds how far the traced run's self shares may sum from
// the step wall clock. Self times partition each step exactly unless
// sibling spans overlap, which no layer does on the step's path.
const selfTolerance = 0.02

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// perSecondP99 is the median over the window's whole seconds of the p99
// of the steps completed in that second. A neighbour's CPU burst of a
// second or two moves the p99 of the whole window by a third; it moves
// only the seconds it falls in, and the median passes over them. The
// steps completed after the last whole second (the in-flight ones the
// window waits for) count only when no second is whole.
func perSecondP99(lat []float64, done []time.Duration, elapsed time.Duration) float64 {
	whole := int(elapsed / time.Second)
	bins := make([][]float64, whole)
	for i, d := range done {
		if k := int(d / time.Second); k < whole {
			bins[k] = append(bins[k], lat[i])
		}
	}
	var p99s []float64
	for _, b := range bins {
		if len(b) > 0 {
			p99s = append(p99s, quantile(b, 0.99))
		}
	}
	if len(p99s) == 0 {
		return quantile(lat, 0.99)
	}
	return quantile(p99s, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanMs is a histogram's mean over the window, in milliseconds.
func (s series) meanMs(name string, labels ...string) float64 {
	return 1000 * ratio(s.sum(name+"_sum", labels...), s.sum(name+"_count", labels...))
}

func endToEndValues(o *outcome) map[string]float64 {
	attempted, failed := o.rec.totals()
	return map[string]float64{
		"setup_s":     quantile(o.setupS, 0.5),
		"steps_per_s": float64(o.steps) / o.elapsed.Seconds(),
		"step_p50_ms": quantile(o.rec.steps, 0.5),
		"step_p99_ms": perSecondP99(o.rec.steps, o.rec.doneAt, o.elapsed),
		// The whole window's p99, kept in the run record for comparison.
		"step_p99_ms.window":      quantile(o.rec.steps, 0.99),
		"ok_ratio":                ratio(float64(attempted-failed), float64(attempted)),
		"disk_bytes_per_doc_byte": ratio(float64(o.diskBytes), float64(o.docBytes)),
		"daemon_rss_mb":           float64(o.rssBytes) / (1 << 20),
	}
}

// route labels of the daemons' per-route request histograms.
const (
	routeStore      = `route="POST /v1/documents"`
	routeRetrieve   = `route="GET /v1/documents/{pid}"`
	routeTFC        = `route="POST /v1/process"`
	routeStatistics = `route="GET /v1/statistics"`
	routeWorklist   = `route="GET /v1/worklist"`
)

// layerValues derives the per-layer metrics of the untraced window from
// the generator's call timings and the metric deltas.
func layerValues(o *outcome) map[string]float64 {
	d, g, c := o.delta, o.gen, o.rec.calls
	steps := float64(o.steps)
	perStep := func(v float64) float64 { return ratio(v, steps) }
	reads := float64(len(c["statistics"]) + len(c["worklist"]) + len(c["status"]))
	requests := d.sum("http_requests_total")
	return map[string]float64{
		"aea.execute_ms":                quantile(c["aea_execute"], 0.5),
		"aea.verify_sigs_per_step":      perStep(g.sum("aea_verify_signatures_total")),
		"aea.decrypt_elements_per_step": perStep(g.sum("aea_decrypt_elements_total")),
		"httpapi.retrieve_ms":           quantile(c["retrieve"], 0.5),
		"httpapi.store_ms":              quantile(c["store"], 0.5),
		"httpapi.tfc_ms":                quantile(c["tfc_process"], 0.5),
		"httpapi.server_ms.store":       d.meanMs("http_request_seconds", routeStore),
		"httpapi.server_ms.retrieve":    d.meanMs("http_request_seconds", routeRetrieve),
		"httpapi.server_ms.tfc_process": d.meanMs("http_request_seconds", routeTFC),
		"httpapi.server_ms.statistics":  d.meanMs("http_request_seconds", routeStatistics),
		"httpapi.server_ms.worklist":    d.meanMs("http_request_seconds", routeWorklist),
		"stats_p50_ms":                  quantile(c["statistics"], 0.5),
		"worklist_p50_ms":               quantile(c["worklist"], 0.5),
		"httpapi.requests_per_step":     perStep(requests),
		"httpapi.failed_per_step":       perStep(requests - d.sum("http_requests_total", `code="2xx"`)),
		"dsig.verify_ops_per_step":      perStep(d.sum("dsig_verify_ops_total")),
		"dsig.sign_ops_per_step":        perStep(d.sum("dsig_sign_ops_total")),
		"dsig.cache_hit_ratio": ratio(d.sum("dsig_verify_cache_hits_total"),
			d.sum("dsig_verify_cache_hits_total")+d.sum("dsig_verify_cache_misses_total")),
		"dsig.pool_wait_ms": d.meanMs("dsig_verify_pool_queue_wait_seconds"),
		"xmltree.memo_hit_ratio": ratio(d.sum("xmltree_canon_memo_hits_total"),
			d.sum("xmltree_canon_memo_hits_total")+d.sum("xmltree_canon_memo_misses_total")),
		"xmlenc.encrypt_ops_per_step": perStep(d.sum("xmlenc_encrypt_ops_total")),
		"xmlenc.decrypt_ops_per_step": perStep(d.sum("xmlenc_decrypt_ops_total")),
		"tfc.verify_ms":               d.meanMs("tfc_verify_seconds"),
		"tfc.encrypt_sign_ms":         d.meanMs("tfc_encrypt_sign_seconds"),
		"pool.wal_bytes_per_doc_byte": ratio(d.sum("pool_wal_bytes_total"),
			d.sum("http_request_body_bytes_total", routeStore)),
		"pool.wal_fsyncs_per_step":    perStep(d.sum("pool_wal_fsyncs_total")),
		"pool.scan_cells_per_read":    ratio(d.sum("pool_scan_cells_total"), reads),
		"poolcluster.writes_per_step": perStep(d.sum("poolcluster_writes_total")),
		"poolcluster.max_lag":         o.lagMax,
		"relay.attempts_per_delivery": ratio(d.sum("relay_attempts_total"), d.sum("relay_delivered_total")),
		"relay.queue_depth_max":       o.relayMax,
	}
}

// tracedValues derives the self-time shares from the traced run t and
// the tracing overhead against the untraced run u.
func tracedValues(u, t *outcome) map[string]float64 {
	b := selfTimes(t.spans, t.rec.traces)
	wall := float64(b.wall)
	out := map[string]float64{}
	var sum float64
	for _, l := range layers {
		share := ratio(float64(b.self[l]), wall)
		out["self."+l] = share
		sum += share
	}
	out["self.relay_async"] = ratio(float64(b.async), wall)
	out["trace.self_share_sum"] = sum
	out["trace.overhead"] = ratio(float64(u.steps)/u.elapsed.Seconds(), float64(t.steps)/t.elapsed.Seconds()) - 1
	out["trace.steps"] = float64(b.steps)
	out["trace.orphan_spans"] = float64(b.orphans)
	return out
}
