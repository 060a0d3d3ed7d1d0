package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dra4wfms/internal/aea"
	"dra4wfms/internal/document"
	"dra4wfms/internal/httpapi"
	"dra4wfms/internal/pki"
	"dra4wfms/internal/portal"
	"dra4wfms/internal/trace"
	"dra4wfms/internal/wfdef"
)

// workload is one seeded traffic mix over one deployment shape.
type workload struct {
	name string
	def  func() *wfdef.Definition
	// tfc routes every step through dratfc (the advanced model).
	tfc bool
	// cluster puts the portal over three drapool nodes.
	cluster bool
	// corpus preloads a fixed set of instances that the clients advance,
	// instead of starting fresh ones, so no rows are created while the
	// window is timed.
	corpus bool
	// rejects is how often D rejects (looping back to A) before accepting.
	rejects int
	// readEvery interleaves one monitoring read after every readEvery-th
	// step of a client (0: no reads in the window).
	readEvery int
	// wantCERs and wantSigs are the CER and verified-signature counts of
	// every completed instance's final document.
	wantCERs, wantSigs int
}

var workloads = []*workload{
	{name: "fig9a-local", def: wfdef.Fig9A, wantCERs: 5, wantSigs: 6},
	{name: "fig9b-loop", def: wfdef.Fig9B, tfc: true, rejects: 1, wantCERs: 20, wantSigs: 21},
	{name: "cluster-mixed", def: wfdef.Fig9A, cluster: true, corpus: true, readEvery: 10, wantCERs: 5, wantSigs: 6},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const (
	designer     = "designer@acme"
	tfcPrincipal = "tfc@cloud"
)

// principals are the Figure 9 participants plus the designer and TFC.
var principals = []string{designer, "alice@acme", "bob@acme", "betty@bolt", "carol@bolt", "dave@acme", tfcPrincipal}

// fixture is the reused drakeys deployment: trust bundle and keys.
type fixture struct {
	trust string
	reg   *pki.Registry
	keys  map[string]*pki.KeyPair
}

func loadFixture(dir string) (*fixture, error) {
	fx := &fixture{trust: filepath.Join(dir, "trust.json"), keys: map[string]*pki.KeyPair{}}
	data, err := os.ReadFile(fx.trust)
	if err != nil {
		return nil, err
	}
	bundle, err := pki.ParseBundle(data)
	if err != nil {
		return nil, err
	}
	if fx.reg, err = bundle.BuildRegistry(time.Now()); err != nil {
		return nil, err
	}
	for _, id := range principals {
		pemBytes, err := os.ReadFile(fx.keyPath(id))
		if err != nil {
			return nil, err
		}
		if fx.keys[id], err = pki.DecodePrivateKeyPEM(pemBytes); err != nil {
			return nil, fmt.Errorf("key of %s: %w", id, err)
		}
	}
	return fx, nil
}

func (fx *fixture) keyPath(id string) string {
	return filepath.Join(filepath.Dir(fx.trust), "keys", id+".pem")
}

// instance is one process instance as the generator knows it.
type instance struct {
	pid string
	// enabled holds the notifications of the last acknowledged store:
	// the activities the instance currently waits for.
	enabled     []portal.Notification
	rejectsLeft int
	steps       int // acknowledged steps, one final CER each
	completed   bool
	failed      bool // an operation on it failed; its state is unknown
	inputs      *rand.Rand
}

// recorder collects the generator's own timings and op counts.
type recorder struct {
	mu     sync.Mutex
	timing bool
	start  time.Time
	steps  []float64            // step latency, ms
	doneAt []time.Duration      // step completion, from start
	calls  map[string][]float64 // client call latency by call, ms
	traces map[string]bool      // trace IDs of the window's traced steps
	// attempted and failed count every operation, in and out of the window.
	attempted, failed int64
}

func newRecorder() *recorder {
	return &recorder{calls: map[string][]float64{}, traces: map[string]bool{}}
}

// open starts the timed window.
func (r *recorder) open() {
	r.mu.Lock()
	r.timing, r.start = true, time.Now()
	r.mu.Unlock()
}

// close ends the timed window and returns its length.
func (r *recorder) close() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timing = false
	return time.Since(r.start)
}

// op counts one attempted operation and, in the window, its latency.
func (r *recorder) op(name string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	if r.timing && err == nil {
		r.calls[name] = append(r.calls[name], ms(d))
	}
}

// step records one acknowledged step and, if traced, its trace ID.
func (r *recorder) step(d time.Duration, root *trace.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timing {
		r.steps = append(r.steps, ms(d))
		r.doneAt = append(r.doneAt, time.Since(r.start))
		if root != nil {
			r.traces[root.Context().TraceID.String()] = true
		}
	}
}

func (r *recorder) totals() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client is one closed-loop generator client. Its principals share one
// transport holding at most one connection per daemon.
type client struct {
	id        int
	rng       *rand.Rand
	httpc     *http.Client
	portal    map[string]*httpapi.Client
	tfc       map[string]*httpapi.Client
	sinceRead int
	reads     int
}

// runner drives one workload against one deployment.
type runner struct {
	w       *workload
	def     *wfdef.Definition
	fx      *fixture
	agents  map[string]*aea.AEA // the participants' AEAs, shared by both clients
	clients []*client
	rec     *recorder
	traced  bool

	mu    sync.Mutex
	insts []*instance
	queue []*instance // corpus instances in seeded order
	next  int
}

const numClients = 2

func newRunner(w *workload, fx *fixture, dep *deployment, seed int64, traced bool) *runner {
	r := &runner{w: w, def: w.def(), fx: fx, rec: newRecorder(), traced: traced,
		agents: map[string]*aea.AEA{}}
	for _, id := range principals {
		r.agents[id] = aea.New(fx.keys[id], fx.reg)
	}
	master := rand.New(rand.NewSource(seed))
	for i := 0; i < numClients; i++ {
		rng := rand.New(rand.NewSource(master.Int63()))
		c := &client{id: i, rng: rng, reads: rng.Intn(4),
			httpc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			portal: map[string]*httpapi.Client{}, tfc: map[string]*httpapi.Client{}}
		for _, id := range principals {
			pc := httpapi.NewClient(dep.portal.url, fx.keys[id])
			pc.HTTP = c.httpc
			c.portal[id] = pc
			if dep.tfc != nil {
				tc := httpapi.NewClient(dep.tfc.url, fx.keys[id])
				tc.HTTP = c.httpc
				c.tfc[id] = tc
			}
		}
		r.clients = append(r.clients, c)
	}
	return r
}

func (r *runner) closeIdle() {
	for _, c := range r.clients {
		c.httpc.CloseIdleConnections()
	}
}

// call times one client call as a generator span of the given layer
// tier and records it as an op.
func (r *runner) call(ctx context.Context, name, tier string, f func(context.Context) error) error {
	ctx, span := trace.Default().StartSpan(ctx, "sysbench_"+name)
	span.SetTier(tier)
	t0 := time.Now()
	err := f(ctx)
	r.rec.op(name, time.Since(t0), err)
	if err != nil {
		span.SetStatus("error")
	}
	span.End()
	return err
}

// newInstance creates and stores one initial document. The process ID
// and the instance's inputs derive from the client's seeded stream.
func (r *runner) newInstance(ctx context.Context, c *client) (*instance, error) {
	in := &instance{pid: fmt.Sprintf("p-%016x", c.rng.Uint64()), rejectsLeft: r.w.rejects,
		inputs: rand.New(rand.NewSource(c.rng.Int63()))}
	doc, err := document.New(r.def, r.fx.keys[designer], in.pid, time.Now())
	if err != nil {
		return nil, err
	}
	err = r.call(ctx, "store_initial", "httpapi.client", func(ctx context.Context) error {
		in.enabled, err = c.portal[designer].StoreInitialCtx(ctx, doc)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.insts = append(r.insts, in)
	r.mu.Unlock()
	return in, nil
}

// inputs are the participant's responses: fixed-size values whose
// content derives from the instance's seeded stream.
func (r *runner) inputs(in *instance, act string) aea.Inputs {
	word := func() string { return fmt.Sprintf("%016x", in.inputs.Uint64()) }
	switch act {
	case "A":
		att := make([]byte, attachmentBytes)
		in.inputs.Read(att)
		return aea.Inputs{"request": "purchase servers, ref " + word(),
			"attachment": document.EncodeAttachment("quote-"+word()+".pdf", "application/pdf", att)}
	case "B1":
		return aea.Inputs{"techReview": "adequate, ref " + word()}
	case "B2":
		return aea.Inputs{"budgetReview": "within budget, ref " + word()}
	case "C":
		return aea.Inputs{"summary": "both reviews positive, ref " + word()}
	case "D":
		if in.rejectsLeft > 0 {
			in.rejectsLeft--
			return aea.Inputs{"accept": "false"}
		}
		return aea.Inputs{"accept": "true"}
	}
	return nil
}

// attachmentBytes sizes A's attachment so that a completed Fig 9A
// document is about 30 KB.
const attachmentBytes = 1024

// step performs one workflow step: Retrieve → AEA Execute (or
// ExecuteToTFC → TFC ProcessViaTFC) → Store. Its latency runs from the
// start of Retrieve to the Store acknowledgement, whose notifications
// tell the client what the instance waits for next.
func (r *runner) step(ctx context.Context, c *client, in *instance) error {
	note := in.enabled[0]
	act, who := note.Activity, note.Participant
	pc, agent := c.portal[who], r.agents[who]
	var root *trace.Span
	if r.traced {
		ctx, root = trace.Default().StartRoot(ctx, "client", "sysbench_step")
	}
	t0 := time.Now()
	var doc, out *document.Document
	var notes []portal.Notification
	err := r.call(ctx, "retrieve", "httpapi.client", func(ctx context.Context) (err error) {
		doc, err = pc.RetrieveCtx(ctx, in.pid)
		return err
	})
	inputs := r.inputs(in, act)
	if err == nil && r.w.tfc {
		var interm *document.Document
		err = r.call(ctx, "aea_execute", "aea", func(ctx context.Context) (err error) {
			interm, err = agent.ExecuteToTFCCtx(ctx, doc, act, inputs)
			return err
		})
		if err == nil {
			err = r.call(ctx, "tfc_process", "httpapi.client", func(ctx context.Context) (err error) {
				_, out, err = c.tfc[who].ProcessViaTFCCtx(ctx, interm)
				return err
			})
		}
	} else if err == nil {
		err = r.call(ctx, "aea_execute", "aea", func(ctx context.Context) error {
			o, err := agent.ExecuteCtx(ctx, doc, act, inputs, time.Now())
			if err == nil {
				out = o.Doc
			}
			return err
		})
	}
	if err == nil {
		err = r.call(ctx, "store", "httpapi.client", func(ctx context.Context) (err error) {
			notes, err = pc.StoreCtx(ctx, out)
			return err
		})
	}
	d := time.Since(t0)
	root.End()
	if err != nil {
		in.failed = true
		return err
	}
	r.rec.step(d, root)
	in.steps++
	in.enabled = notes
	in.completed = len(notes) == 0
	return nil
}

// read performs the client's next monitoring read. The kinds rotate —
// Statistics, a participant's Worklist, one instance's Status, Worklist
// again — from a seeded starting point, so every run reads the same mix;
// the participant and the instance are seeded draws. Worklist comes
// twice per turn because its median needs more samples than the costlier
// Statistics scan can spare.
func (r *runner) read(ctx context.Context, c *client) error {
	c.reads++
	switch c.reads % 4 {
	case 0:
		return r.call(ctx, "statistics", "httpapi.client", func(context.Context) error {
			_, err := c.portal[designer].Statistics()
			return err
		})
	case 1, 3:
		who := principals[1+c.rng.Intn(5)]
		return r.call(ctx, "worklist", "httpapi.client", func(context.Context) error {
			_, err := c.portal[who].Worklist()
			return err
		})
	default:
		r.mu.Lock()
		pid := r.queue[c.rng.Intn(len(r.queue))].pid
		r.mu.Unlock()
		return r.call(ctx, "status", "httpapi.client", func(context.Context) error {
			_, err := c.portal[designer].Status(pid)
			return err
		})
	}
}

var errCorpusExhausted = errors.New("corpus exhausted: raise the corpus size")

// nextInstance hands the client its next instance: a fresh one, or the
// next corpus instance in seeded order.
func (r *runner) nextInstance(ctx context.Context, c *client) (*instance, error) {
	if !r.w.corpus {
		return r.newInstance(ctx, c)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == len(r.queue) {
		return nil, errCorpusExhausted
	}
	in := r.queue[r.next]
	r.next++
	return in, nil
}

// drive runs one client's closed loop: instances one after another,
// each advanced step by step, until it has finished `instances`
// instances (warm-up) or until stop reports true (window). The first
// failed operation ends the client's loop.
func (r *runner) drive(ctx context.Context, c *client, instances int, stop func() bool) error {
	for n := 0; instances == 0 || n < instances; n++ {
		if stop() {
			return nil
		}
		in, err := r.nextInstance(ctx, c)
		if err != nil {
			return err
		}
		for !in.completed && !stop() {
			if err := r.step(ctx, c, in); err != nil {
				return err
			}
			if r.w.readEvery > 0 {
				c.sinceRead++
				if c.sinceRead == r.w.readEvery {
					c.sinceRead = 0
					if err := r.read(ctx, c); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// parallel runs f once per client and joins the errors.
func (r *runner) parallel(f func(c *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// preload stores the corpus: n initial documents split over the
// clients, queued for the window in a seeded order.
func (r *runner) preload(ctx context.Context, n int, seed int64) error {
	err := r.parallel(func(c *client) error {
		for i := c.id; i < n; i += len(r.clients) {
			if _, err := r.newInstance(ctx, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.queue = append([]*instance(nil), r.insts...)
	sort.Slice(r.queue, func(i, j int) bool { return r.queue[i].pid < r.queue[j].pid })
	rand.New(rand.NewSource(seed)).Shuffle(len(r.queue), func(i, j int) {
		r.queue[i], r.queue[j] = r.queue[j], r.queue[i]
	})
	return nil
}
