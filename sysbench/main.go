// Command sysbench is the system benchmark of DRA4WfMS. It provisions
// real draportal, dratfc and drapool daemons, drives one seeded Figure 9
// workload through them from two closed-loop clients, checks the outputs,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) as one JSON object on the last line of standard output.
// README.md describes the workloads and metrics; run.sh builds the
// daemons and this command and runs it from the repository root.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/telemetry"
	"dra4wfms/internal/trace"
)

// config is one invocation's settings; the tests shrink it.
type config struct {
	w              *workload
	seed           int64
	window         time.Duration // timed window
	tracedWindow   time.Duration // window of the traced run (--trace 1)
	setups         int           // set-ups per run; setup_s is their median
	warmInstances  int           // warm-up instances per client
	corpus         int           // preloaded instances (corpus workloads)
	bin, fixture   string
	work           string
	commit, digest string
}

// defaultConfig sizes a run from its window. The corpus holds more
// instances than two clients can finish in the warm-up plus the window
// at 60 steps/s, a third above the fastest cluster rate seen.
func defaultConfig(w *workload, seed int64, seconds int) config {
	warm := 2
	if w.rejects > 0 {
		warm = 1
	}
	return config{
		w: w, seed: seed,
		window:        time.Duration(seconds) * time.Second,
		tracedWindow:  max(time.Second, time.Duration(seconds)*time.Second/4),
		setups:        3,
		warmInstances: warm,
		corpus:        12*seconds + 5*numClients*warm + 40,
	}
}

func main() {
	fs := flag.NewFlagSet("sysbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig9a-local, fig9b-loop or cluster-mixed")
	seed := fs.Int64("seed", 1, "seed of process IDs, inputs, instance order and read mix")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the traced run")
	bin := fs.String("bin", "", "directory holding the draportal, dratfc and drapool binaries")
	fixture := fs.String("fixture", "", "drakeys deployment directory (trust.json and keys/)")
	work := fs.String("work", "", "directory for daemon data, logs and run records")
	commit := fs.String("commit", "unknown", "commit measured, for the env block")
	digest := fs.String("source-digest", "unknown", "digest of the measured sources, for the env block")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err == nil && (*bin == "" || *fixture == "" || *work == "") {
		err = fmt.Errorf("-bin, -fixture and -work are required (run.sh sets them)")
	}
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysbench:", err)
		os.Exit(2)
	}
	cfg := defaultConfig(w, *seed, *seconds)
	cfg.bin, cfg.fixture, cfg.work, cfg.commit, cfg.digest = *bin, *fixture, *work, *commit, *digest

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := execute(ctx, cfg, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sysbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one invocation, printed to standard
// error and kept under <work>/runs.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Settings map[string]any     `json:"settings"`
	Env      *env               `json:"env"`
	Samples  map[string]int     `json:"samples"`
	Problems []string           `json:"problems,omitempty"`
	Values   map[string]float64 `json:"values"`
	Result   result             `json:"result"`
}

// outcome is what one provisioned run measured.
type outcome struct {
	setupS      []float64
	steps       int
	elapsed     time.Duration
	rec         *recorder
	delta       series // daemon metrics over the window, summed over daemons
	gen         series // the generator's own metrics over the window
	lagMax      float64
	relayMax    float64
	rssBytes    int64
	rssByDaemon map[string]int64
	cpu         map[string]float64
	diskBytes   int64
	docBytes    int64
	docs        int
	problems    []string
	spans       []trace.FinishedSpan
}

func execute(ctx context.Context, cfg config, traced bool) (*result, error) {
	fx, err := loadFixture(cfg.fixture)
	if err != nil {
		return nil, fmt.Errorf("loading the key fixture: %w", err)
	}
	e := newEnv(cfg.commit, cfg.digest)
	e.RSASignMs = rsaProbe(fx.keys[designer].Private)

	setups := cfg.setups
	if traced {
		setups = 1 // setup_s is an end-to-end metric; --trace 1 does not report it
	}
	o, err := measure(ctx, cfg, fx, setups, false)
	if err != nil {
		return nil, err
	}
	e.CompletionsPer5s = per5s(o.rec.doneAt, o.elapsed)
	e.CPUShares = o.cpu
	e.PeakRSSMiB = map[string]float64{}
	for name, b := range o.rssByDaemon {
		e.PeakRSSMiB[name] = float64(b) / (1 << 20)
	}
	values := endToEndValues(o)
	res := &result{Metrics: map[string]metric{}}
	problems := o.problems
	for k, v := range layerValues(o) {
		values[k] = v
	}
	runs := []*outcome{o}
	defs := endToEnd
	if traced {
		t, err := measure(ctx, cfg, fx, 1, true)
		if err != nil {
			return nil, err
		}
		runs = append(runs, t)
		problems = append(problems, t.problems...)
		for k, v := range tracedValues(o, t) {
			values[k] = v
		}
		if s := values["trace.self_share_sum"]; s < 1-selfTolerance || s > 1+selfTolerance {
			problems = append(problems, fmt.Sprintf("traced run: self shares sum to %.4f of the step wall clock, outside 1±%.2f", s, selfTolerance))
		}
		defs = perLayer
	}
	e.RSASignMsEnd = rsaProbe(fx.keys[designer].Private)

	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for _, r := range runs {
		a, f := r.rec.totals()
		res.Attempted += a
		res.Failed += f
	}
	res.Correct = len(problems) == 0
	rec := record{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: traced, Env: e, Problems: problems,
		Values: values, Result: *res,
		Settings: map[string]any{
			"clients": numClients, "window_s": cfg.window.Seconds(), "traced_window_s": cfg.tracedWindow.Seconds(),
			"setups": setups, "warm_instances_per_client": cfg.warmInstances,
			"corpus": corpusSize(cfg), "read_every_steps": cfg.w.readEvery,
		},
		Samples: map[string]int{"steps": o.steps, "statistics": len(o.rec.calls["statistics"]),
			"worklist": len(o.rec.calls["worklist"]), "documents": o.docs, "document_bytes": int(o.docBytes)},
	}
	if len(runs) > 1 {
		rec.Samples["traced_steps"] = runs[1].steps
	}
	if err := writeRecord(cfg.work, &rec); err != nil {
		return nil, err
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "sysbench: check failed:", p)
	}
	return res, nil
}

func corpusSize(cfg config) int {
	if cfg.w.corpus {
		return cfg.corpus
	}
	return 0
}

// writeRecord prints the run record to standard error and stores it
// under <work>/runs.
func writeRecord(work string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, string(data))
	dir := filepath.Join(work, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, t, time.Now().Unix()))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// generatorMetrics reads the generator's own registry (the AEAs' counters).
func generatorMetrics() (series, error) {
	var buf bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.String())
}

// measure provisions the workload `setups` times, each time until the
// timed window could open (readiness, corpus preload, warm-up), keeps
// the last deployment, times the window on it, checks the outputs, and
// drains the daemons.
func measure(ctx context.Context, cfg config, fx *fixture, setups int, traced bool) (*outcome, error) {
	o := &outcome{}
	dir := filepath.Join(cfg.work, "run", cfg.w.name)
	opts := provisionOpts{bin: cfg.bin, trust: fx.trust, tfcKey: fx.keyPath(tfcPrincipal),
		tfc: cfg.w.tfc, cluster: cfg.w.cluster, traced: traced}
	var dep *deployment
	var r *runner
	// Every exit path ends the daemons; after a drain this is a no-op.
	defer func() {
		if dep != nil {
			dep.kill()
		}
	}()
	for i := 0; i < setups; i++ {
		// The previous deployment's files are removed and every dirty page
		// is written back before the clock starts, so set-up does not pay
		// for the previous run's disk work.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		writeBack()
		t0 := time.Now()
		var err error
		dep, err = provision(ctx, dir, opts)
		if err != nil {
			return nil, err
		}
		r = newRunner(cfg.w, fx, dep, cfg.seed, traced)
		if err := r.warmUp(ctx, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			r.closeIdle()
			if err := dep.stop(); err != nil {
				return nil, err
			}
		}
	}
	o.rec = r.rec

	var spanBuf bytes.Buffer
	if traced {
		trace.Default().SetOutput(&spanBuf)
	}
	base, err := dep.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	genBase, err := generatorMetrics()
	if err != nil {
		return nil, err
	}
	writeBack()
	poll := startPoller(ctx, dep, traced)
	cpu0 := readCPU()
	r.rec.open()
	deadline := time.Now().Add(cfg.window)
	if traced {
		deadline = time.Now().Add(cfg.tracedWindow)
	}
	runErr := r.parallel(func(c *client) error {
		return r.drive(ctx, c, 0, func() bool { return ctx.Err() != nil || time.Now().After(deadline) })
	})
	o.elapsed = r.rec.close()
	o.cpu = readCPU().shares(cpu0)
	o.steps = len(r.rec.steps)
	o.lagMax, o.relayMax, o.spans = poll.finish()
	if traced {
		trace.Default().SetOutput(nil)
	}
	if runErr != nil {
		o.problems = append(o.problems, "window: "+runErr.Error())
	}
	end, err := dep.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	genEnd, err := generatorMetrics()
	if err != nil {
		return nil, err
	}
	o.delta = series{}
	for name, s := range end {
		o.delta.add(s.minus(base[name]))
	}
	o.gen = genEnd.minus(genBase)
	if o.rssBytes, o.rssByDaemon, err = dep.peakRSS(); err != nil {
		return nil, err
	}
	docBytes, problems, err := r.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	o.docBytes = docBytes
	o.docs = len(r.insts)
	o.problems = append(o.problems, problems...)
	r.closeIdle()
	if err := dep.stop(); err != nil {
		return nil, err
	}
	if o.diskBytes, err = dep.diskBytes(); err != nil {
		return nil, err
	}
	if traced {
		gen, err := decodeSpans(&spanBuf)
		if err != nil {
			return nil, err
		}
		o.spans = append(o.spans, gen...)
		for _, d := range []*daemon{dep.portal, dep.tfc} {
			if d == nil {
				continue
			}
			f, err := os.Open(filepath.Join(dir, d.name+".spans.jsonl"))
			if err != nil {
				return nil, err
			}
			spans, err := decodeSpans(f)
			f.Close()
			if err != nil {
				return nil, err
			}
			o.spans = append(o.spans, spans...)
		}
	}
	return o, nil
}

// warmUp brings a fresh deployment to where the window can open: the
// corpus is preloaded and every client has finished its warm-up
// instances.
func (r *runner) warmUp(ctx context.Context, cfg config) error {
	if r.w.corpus {
		if err := r.preload(ctx, cfg.corpus, cfg.seed); err != nil {
			return err
		}
	}
	return r.parallel(func(c *client) error {
		return r.drive(ctx, c, cfg.warmInstances, func() bool { return ctx.Err() != nil })
	})
}

// decodeSpans reads a JSONL span export.
func decodeSpans(rd io.Reader) ([]trace.FinishedSpan, error) {
	var out []trace.FinishedSpan
	dec := json.NewDecoder(rd)
	for dec.More() {
		var s trace.FinishedSpan
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("decoding spans: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// poller samples the portal's replication gauges once a second during
// the window and, in the traced run, drains the drapool span rings
// (4096 spans each, too few to hold a whole window) every second.
type poller struct {
	stop     chan struct{}
	done     chan struct{}
	lagMax   float64
	relayMax float64
	spans    map[string]trace.FinishedSpan
}

func startPoller(ctx context.Context, dep *deployment, traced bool) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{}), spans: map[string]trace.FinishedSpan{}}
	tick := func() {
		if s, err := scrape(ctx, dep.portal.url); err == nil {
			p.lagMax = max(p.lagMax, s.sum("poolcluster_max_replica_lag"))
			p.relayMax = max(p.relayMax, s.sum("relay_queue_depth"))
		}
		if !traced {
			return
		}
		for _, d := range dep.pools {
			tr, err := httpapi.NewClient(d.url, nil).Traces("")
			if err != nil {
				continue
			}
			for _, s := range tr.Spans {
				p.spans[s.SpanID] = s
			}
		}
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				tick()
				return
			case <-t.C:
				tick()
			}
		}
	}()
	return p
}

// finish stops the poller after one last sample and returns what it saw.
func (p *poller) finish() (lagMax, relayMax float64, spans []trace.FinishedSpan) {
	close(p.stop)
	<-p.done
	for _, s := range p.spans {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return p.lagMax, p.relayMax, spans
}
