package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scalia/client"
	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/engine"
)

// container is a key namespace with an optional placement rule.
type container struct {
	name string
	rule *core.Rule // nil = the broker's default rule
}

// workload is one set of inputs the benchmark runs. See README.md for
// why each exists and which layer it loads.
type workload struct {
	name string
	why  string

	objectBytes int64
	stripeBytes int64
	cacheBytes  int64      // per datacenter; 0 = cache off
	latencyMs   [5]float64 // per provider, in cloud.PaperProviders() order
	preload     int        // keys written before warm-up, over all clients
	containers  []container
	putShare    float64
	creates     bool    // PUTs create fresh keys instead of overwriting
	zipfS       float64 // 0 = uniform key choice
	maint       bool    // phased outage/repair/optimize cycles
	// warmOps ops per client run at zero provider latency before the
	// timed warm-up, so caches and pools reach steady state cheaply.
	warmOps int
}

func paperRule(i int) *core.Rule {
	r := core.PaperRules()[i]
	return &r
}

var workloads = []*workload{
	{
		name:        "large-local",
		why:         "8 MiB objects at zero provider latency: hashing, erasure coding, copies and HTTP streaming are the whole cost",
		objectBytes: 8 << 20,
		stripeBytes: 4 << 20,
		preload:     16,
		containers:  []container{{"r3", paperRule(2)}},
		putShare:    0.5,
		warmOps:     4,
	},
	{
		name:        "rtt-striped",
		why:         "1 MiB objects in four stripes behind 10-18 ms providers: round trips, fan-out width and pipeline depth are the whole cost",
		objectBytes: 1 << 20,
		stripeBytes: 256 << 10,
		latencyMs:   [5]float64{10, 12, 14, 16, 18},
		preload:     64,
		containers:  []container{{"r3", paperRule(2)}},
		putShare:    0.5,
		creates:     true,
		warmOps:     8,
	},
	{
		name:        "zipf-cached",
		why:         "Zipf reads over a working set 2.3x the stripe cache behind 5-9 ms providers: hit path, miss path and overwrite invalidation",
		objectBytes: 256 << 10,
		stripeBytes: 4 << 20,
		cacheBytes:  64 << 20,
		latencyMs:   [5]float64{5, 6, 7, 8, 9},
		preload:     1200,
		containers:  []container{{"def", nil}},
		putShare:    0.05,
		zipfS:       1.1,
		warmOps:     1500,
	},
	{
		name:        "small-maint",
		why:         "128 KiB objects through outage, repair, recovery and optimize cycles: per-request overhead and the control plane are the whole cost",
		objectBytes: 128 << 10,
		stripeBytes: 4 << 20,
		preload:     1500,
		containers:  []container{{"def", nil}, {"r1", paperRule(0)}, {"r3", paperRule(2)}},
		putShare:    0.5,
		maint:       true,
		warmOps:     50,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// containerOf spreads keys round-robin over the workload's containers.
// Two clients and three containers are coprime, so every client's
// partition holds every container.
func (w *workload) containerOf(key int) string {
	return w.containers[key%len(w.containers)].name
}

// deployment is the system under test: one broker behind the v1
// gateway on a loopback listener, the five paper providers wrapped in
// latencyBackends, and two typed clients with one connection each.
type deployment struct {
	w         *workload
	broker    *engine.Broker
	clock     *engine.SimClock // small-maint only
	backends  []*latencyBackend
	latencyOn atomic.Bool
	tr        *tracer // nil in untraced runs

	srv      *http.Server
	served   chan error
	baseURL  string
	tports   []*http.Transport
	workers  []*worker
	payloads *payloads
}

// newDeployment builds the deployment with the scalia-server defaults
// written out, so a change to a default shows up as a diff here and
// not as a silent shift of the baseline.
func newDeployment(w *workload, seed int64, pay *payloads, tr *tracer) (*deployment, error) {
	d := &deployment{w: w, tr: tr, payloads: pay}
	reg := cloud.NewRegistry()
	for i, spec := range cloud.PaperProviders() {
		lat := time.Duration(w.latencyMs[i] * float64(time.Millisecond))
		be := newLatencyBackend(spec, lat, &d.latencyOn, tr)
		reg.Register(be)
		d.backends = append(d.backends, be)
	}
	cfg := engine.Config{
		Datacenters:        []string{"dc1", "dc2"},
		EnginesPerDC:       2,
		CacheBytes:         w.cacheBytes,
		PeriodHours:        1,
		Registry:           reg,
		StripeBytes:        w.stripeBytes,
		ReadParallelism:    4,
		PrefetchStripes:    2,
		WritePipelineDepth: 4,
		MaxBufferBytes:     256 << 20,
		ReoptWorkers:       2,
		Clock:              engine.NewWallClock(1),
	}
	if w.maint {
		// Deterministic maintenance: the cycle drains the queue and
		// advances the clock itself.
		d.clock = engine.NewSimClock()
		cfg.Clock = d.clock
		cfg.ReoptWorkers = 0
	}
	d.broker = engine.NewBroker(cfg)
	for _, c := range w.containers {
		if c.rule != nil {
			d.broker.Rules().SetContainerRule(c.name, *c.rule)
		}
	}

	var h http.Handler = engine.NewGateway(d.broker)
	if tr != nil {
		h = &tracingHandler{inner: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.broker.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.baseURL = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: h}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()

	for c := 0; c < numClients; c++ {
		tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		d.tports = append(d.tports, tp)
		var rt http.RoundTripper = tp
		if tr != nil {
			rt = &tracingTransport{base: tp, tr: tr}
		}
		cl := client.New(d.baseURL, client.WithHTTPClient(&http.Client{Transport: rt}))
		d.workers = append(d.workers, newWorker(d, c, seed, &httpAPI{cl}))
	}
	return d, nil
}

// close stops the server and the broker and waits for both.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, tp := range d.tports {
		tp.CloseIdleConnections()
	}
	d.broker.Close()
	return err
}

// eachWorker runs fn on every client concurrently and waits.
func (d *deployment) eachWorker(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// preloadKeys writes every preloaded key once, each client its own
// partition, at zero provider latency.
func (d *deployment) preloadKeys() {
	d.latencyOn.Store(false)
	d.eachWorker(func(w *worker) {
		for k := w.id; k < d.w.preload; k += numClients {
			w.do(op{opPut, k}, phaseUntimed)
		}
	})
}

// usedBytes sums the providers' stored volume.
func (d *deployment) usedBytes() int64 {
	var n int64
	for _, b := range d.backends {
		n += b.UsedBytes()
	}
	return n
}
