package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dra4wfms/internal/trace"
)

// TestSelfTimesPartitionRoot checks the self-time arithmetic on a
// synthetic span tree: self times sum to the root's wall clock, a child
// running past its parent is clipped, and a relay subtree is reported as
// async time outside the partition.
func TestSelfTimesPartitionRoot(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent, tier string, from, to int) trace.FinishedSpan {
		return trace.FinishedSpan{TraceID: "t1", SpanID: id, ParentID: parent, Tier: tier,
			Start: at(from), Duration: at(to).Sub(at(from))}
	}
	spans := []trace.FinishedSpan{
		span("root", "", "client", 0, 100),
		span("retrieve", "root", "httpapi.client", 5, 30),
		span("server", "retrieve", "http", 8, 28),
		span("portal", "server", "portal", 10, 26),
		span("aea", "root", "aea", 30, 60),
		span("verify", "aea", "dsig", 32, 50),
		span("store", "root", "httpapi.client", 60, 98),
		span("server2", "store", "http", 62, 96),
		span("pool", "server2", "pool", 90, 120), // runs past its parent: clipped to 90..96
		span("relay", "server2", "relay", 70, 140),
		span("backup", "relay", "http", 75, 130),
		span("other-trace", "", "client", 0, 50),
	}
	spans[len(spans)-1].TraceID = "t2"
	b := selfTimes(spans, map[string]bool{"t1": true})

	want := map[string]time.Duration{
		"generator":      (5 + 2) * time.Millisecond, // 0..5, 98..100
		"httpapi.client": (3 + 2 + 2 + 2) * time.Millisecond,
		"httpapi.server": (2 + 2 + 28) * time.Millisecond, // 8..10, 26..28, 62..90
		"portal":         16 * time.Millisecond,
		"aea":            12 * time.Millisecond,
		"dsig":           18 * time.Millisecond,
		"pool":           6 * time.Millisecond,
	}
	var sum time.Duration
	for layer, d := range b.self {
		sum += d
		if d != want[layer] {
			t.Errorf("self[%s] = %v, want %v", layer, d, want[layer])
		}
	}
	if b.wall != 100*time.Millisecond || sum != b.wall {
		t.Errorf("self times sum to %v over a wall clock of %v, want both 100ms", sum, b.wall)
	}
	if b.async != 70*time.Millisecond {
		t.Errorf("async = %v, want the relay span's 70ms", b.async)
	}
	if b.steps != 1 || b.orphans != 0 {
		t.Errorf("steps = %d, orphans = %d, want 1 and 0", b.steps, b.orphans)
	}
}

// TestPerSecondP99 checks that one slow second does not move the
// reported p99, and that the in-flight steps after the last whole second
// are left out.
func TestPerSecondP99(t *testing.T) {
	var lat []float64
	var done []time.Duration
	for sec, v := range []float64{10, 50, 12, 11, 999} {
		for i := 0; i < 100; i++ {
			lat = append(lat, v)
			done = append(done, time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := perSecondP99(lat, done, 4*time.Second+200*time.Millisecond); got != 11 {
		t.Errorf("perSecondP99 = %v, want 11, the nearest-rank median of 10, 50, 12 and 11", got)
	}
	if got := perSecondP99(lat[:5], done[:5], 500*time.Millisecond); got != 10 {
		t.Errorf("perSecondP99 without a whole second = %v, want the p99 of every step, 10", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// workloads and metrics this command emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, sysbench has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, sysbench %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, sysbench emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], sysbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// tinyConfig builds the daemons and a 1024-bit key fixture once and
// returns a run small enough for a test: one set-up, one warm-up
// instance per client, a one-second window, and a read after every
// second step where the workload reads in the window.
func tinyConfig(t *testing.T) func(w *workload) config {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	build := exec.Command("go", "build", "-o", bin+"/",
		"dra4wfms/cmd/draportal", "dra4wfms/cmd/dratfc", "dra4wfms/cmd/drapool", "dra4wfms/cmd/drakeys")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	fixture := filepath.Join(dir, "fixture")
	keys := exec.Command(filepath.Join(bin, "drakeys"), "-out", fixture, "-bits", "1024",
		"-principals", strings.Join(principals, ","))
	if out, err := keys.CombinedOutput(); err != nil {
		t.Fatalf("making the key fixture: %v\n%s", err, out)
	}
	return func(w *workload) config {
		tiny := *w
		if tiny.readEvery > 0 {
			tiny.readEvery = 2
		}
		return config{w: &tiny, seed: 7, window: time.Second, tracedWindow: time.Second, setups: 1,
			warmInstances: 1, corpus: 40,
			bin: bin, fixture: fixture, work: filepath.Join(dir, "work"), commit: "test", digest: "test"}
	}
}

// TestTinyRuns runs every workload untraced and traced, checks that each
// run is correct and emits every metric with its unit, and checks the
// control zeros: layers a workload does not use report zero, and the
// TFC cascade makes fig9b-loop verify more signatures per step.
func TestTinyRuns(t *testing.T) {
	cfgFor := tinyConfig(t)
	layer := map[string]map[string]metric{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(context.Background(), cfgFor(w), traced)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				layer[w.name] = res.Metrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}

	zero := func(workload string, names ...string) {
		for _, n := range names {
			if v := layer[workload][n].Value; v != 0 {
				t.Errorf("%s: control metric %s = %v, want 0", workload, n, v)
			}
		}
	}
	noTFC := []string{"tfc.verify_ms", "tfc.encrypt_sign_ms", "httpapi.tfc_ms", "httpapi.server_ms.tfc_process", "self.tfc"}
	zero("fig9a-local", noTFC...)
	zero("cluster-mixed", noTFC...)
	noCluster := []string{"poolcluster.writes_per_step", "poolcluster.max_lag", "relay.attempts_per_delivery",
		"relay.queue_depth_max", "pool.scan_cells_per_read", "self.poolcluster", "self.relay_async",
		"stats_p50_ms", "worklist_p50_ms"}
	zero("fig9a-local", noCluster...)
	zero("fig9b-loop", noCluster...)
	if a, b := layer["fig9a-local"]["dsig.verify_ops_per_step"].Value, layer["fig9b-loop"]["dsig.verify_ops_per_step"].Value; b <= a {
		t.Errorf("dsig.verify_ops_per_step: fig9b-loop %v, want above fig9a-local %v", b, a)
	}
	for _, w := range []string{"fig9b-loop"} {
		for _, n := range []string{"tfc.verify_ms", "tfc.encrypt_sign_ms", "self.tfc"} {
			if layer[w][n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0 on the TFC's home workload", w, n, layer[w][n].Value)
			}
		}
	}
	for _, n := range []string{"poolcluster.writes_per_step", "pool.scan_cells_per_read", "relay.attempts_per_delivery",
		"stats_p50_ms", "worklist_p50_ms"} {
		if layer["cluster-mixed"][n].Value <= 0 {
			t.Errorf("cluster-mixed: %s = %v, want > 0 on the cluster's home workload", n, layer["cluster-mixed"][n].Value)
		}
	}
}
