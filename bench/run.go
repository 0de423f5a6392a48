package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"scalia/internal/cache"
	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/engine"
	"scalia/internal/obs"
)

// runOpts parameterises one run of one workload.
type runOpts struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	traced bool
	// setups is how many times the deployment is built and preloaded;
	// setup_s is the median, the last one is used.
	setups int
	// outDir receives the span file of a traced run.
	outDir string

	// Test hooks: wrap the clients' API (corruption injection) and act
	// on the deployment after the window, before the final checks.
	wrapAPI      func(objectAPI) objectAPI
	beforeChecks func(*deployment)
}

// runResult is what one run reports.
type runResult struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Notes are human-readable findings (tail percentile with its sample
	// count, the p50 breakdown, failed checks) printed on stderr.
	Notes []string
}

// counters is a snapshot of everything the window's deltas come from.
type counters struct {
	cost     float64
	read     engine.ReadPathStats
	write    engine.WritePathStats
	stageSum map[string]float64
	stageCnt map[string]uint64
	cache    cache.Stats
	planner  core.PlannerStats
	maint    engine.MaintStats
	proc     procSnapshot
}

func (d *deployment) snapshot() counters {
	c := counters{
		cost:     d.broker.Registry().TotalCost(),
		read:     d.broker.ReadStats(),
		write:    d.broker.WriteStats(),
		stageSum: map[string]float64{},
		stageCnt: map[string]uint64{},
		cache:    d.broker.Caches().Stats(),
		planner:  d.broker.Planner().Stats(),
		maint:    d.broker.MaintStats(),
		proc:     readProc(),
	}
	for _, h := range d.broker.Metrics().Histograms("scalia_stage_duration_seconds") {
		c.stageSum[h.Labels["stage"]] = h.Snapshot.Sum
		c.stageCnt[h.Labels["stage"]] = h.Snapshot.Count
	}
	return c
}

// maintTotals sums the control-plane calls of the measured cycles.
type maintTotals struct {
	cycles     int
	wall       time.Duration // whole cycles, foreground and control
	repairSec  float64
	drainSec   float64
	optSec     float64
	repair     engine.RepairReport
	drained    int
	scanned    int
	recomputed int
	migrated   int
	evaluated  int
}

// run is the state of one workload run.
type run struct {
	w    *workload
	o    runOpts
	d    *deployment
	tr   *tracer
	res  runResult
	samp *sampler

	setupSec   []float64
	before     counters
	after      counters
	partDur    time.Duration // nominal length of the last measured part
	untracedPS float64       // traced runs: ops/s of the untraced lead-in
	maint      maintTotals
	ctlCalls   int                  // control-plane calls made, warm-up included
	ctlErrors  int                  // ... and how many of them failed
	direct     map[opKind][]float64 // traced runs: in-process op latencies, ms
}

// runWorkload runs one workload once and returns its metrics. The
// error is for failures of the harness itself; failed or corrupt
// operations are reported through Correct/Failed.
func runWorkload(w *workload, o runOpts) (runResult, error) {
	if runtime.NumCPU() < numClients {
		return runResult{}, fmt.Errorf("bench needs at least %d CPUs, found %d", numClients, runtime.NumCPU())
	}
	if o.setups < 1 {
		o.setups = 1
	}
	r := &run{w: w, o: o, res: runResult{Workload: w.name, Correct: true, Metrics: map[string]float64{}}}
	if o.traced {
		r.tr = newTracer()
	}
	if err := r.setUp(); err != nil {
		return r.res, err
	}
	defer r.d.close() //nolint:errcheck // shutdown of a finished run
	r.warmUp()
	r.measure()
	if o.traced {
		r.probeDirect()
	}
	r.finalChecks()
	if o.traced {
		r.layerMetrics()
		if err := r.writeSpans(); err != nil {
			return r.res, err
		}
	} else {
		r.endToEndMetrics()
	}
	for _, w := range r.d.workers {
		r.res.Attempted += w.attempted
		r.res.Failed += w.failed
	}
	r.res.Attempted += r.ctlCalls
	r.res.Failed += r.ctlErrors
	if r.res.Failed > 0 || r.res.Attempted == 0 {
		r.res.Correct = false
	}
	return r.res, nil
}

// setUp builds and preloads the deployment o.setups times, keeping
// the last. Each earlier one is torn down and its memory returned, so
// it neither leaks goroutines nor inflates peak_rss_mb.
func (r *run) setUp() error {
	pay := newPayloads(r.o.seed, int(r.w.objectBytes))
	for i := 0; i < r.o.setups; i++ {
		t0 := time.Now()
		d, err := newDeployment(r.w, r.o.seed, pay, r.tr)
		if err != nil {
			return err
		}
		if r.o.wrapAPI != nil {
			for _, w := range d.workers {
				w.api = r.o.wrapAPI(w.api)
			}
		}
		d.preloadKeys()
		r.setupSec = append(r.setupSec, time.Since(t0).Seconds())
		r.d = d
		if i < r.o.setups-1 {
			if err := d.close(); err != nil {
				return fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			r.d = nil
			debug.FreeOSMemory()
		}
	}
	return nil
}

// warmUp brings caches, pools and connections to steady state: first
// cheaply at zero provider latency, then for o.warmup under the
// workload's real latency. small-maint warms with one cycle per victim.
func (r *run) warmUp() {
	d := r.d
	d.eachWorker(func(w *worker) {
		for i := 0; i < r.w.warmOps; i++ {
			w.do(w.gen.next(), phaseUntimed)
		}
	})
	d.latencyOn.Store(true)
	if r.w.maint {
		for c := 0; c < len(d.backends); c++ {
			r.cycle(c, false)
		}
		return
	}
	d.runLoop(r.o.warmup, phaseUntimed)
}

// runLoop drives both clients closed-loop for dur.
func (d *deployment) runLoop(dur time.Duration, ph phase) {
	start := time.Now()
	d.eachWorker(func(w *worker) {
		w.windowStart = start
		for time.Since(start) < dur {
			w.do(w.gen.next(), ph)
		}
	})
}

// measure runs the window. A traced run spends the first quarter
// untraced: the rate there against the traced rest is the tracing
// overhead.
func (r *run) measure() {
	d := r.d
	r.samp = startSampler()
	defer r.samp.stop()

	window := r.o.window
	if r.o.traced {
		lead := window / 4
		r.measurePart(lead)
		r.untracedPS = r.opsPerSec()
		for _, w := range d.workers {
			w.samples = w.samples[:0]
		}
		r.maint = maintTotals{}
		window -= lead
		r.tr.on.Store(true)
		defer r.tr.on.Store(false)
	}
	r.before = d.snapshot()
	r.measurePart(window)
	r.after = d.snapshot()
}

func (r *run) measurePart(dur time.Duration) {
	r.partDur = dur
	if !r.w.maint {
		r.d.runLoop(dur, phaseMeasured)
		return
	}
	start := time.Now()
	for _, w := range r.d.workers {
		w.windowStart = start
	}
	// Whole cycles only, continuing the victim rotation of the warm-up.
	for c := len(r.d.backends); time.Since(start) < dur; c++ {
		r.cycle(c, true)
	}
}

// Foreground ops per client in each phase of a small-maint cycle.
const (
	degradedGets = 100
	healthyOps   = 100
)

// cycle is one small-maint cycle: outage, degraded reads, repair,
// recovery, healthy traffic, optimize. The phases never overlap, so no
// read races a repair. Repair and Optimize are followed by the metadata
// flush the facade and the gateway put behind them (timed with the
// call); the drain has none there, so its flush is the benchmark's own
// and untimed — without it a GET through the other datacenter can
// still see the pre-migration metadata and fail (README, "found while
// sizing").
func (r *run) cycle(c int, measured bool) {
	d := r.d
	t0 := time.Now()
	victim := d.backends[c%len(d.backends)].name
	fg, deg := phaseUntimed, phaseUntimed
	tot := &maintTotals{} // warm-up cycles are not summed
	if measured {
		fg, deg = phaseMeasured, phaseDegraded
		tot = &r.maint
	}
	flush := func() { d.broker.Metadata().Flush() }
	setVictim := func(up bool) {
		if _, err := d.broker.Registry().UpdateAvailability(victim, up); err != nil {
			r.ctlFail("availability", err)
		}
		// The market event queued the victim's objects for re-planning.
		tot.drainSec += r.control("maint.drain", c, func(ctx context.Context) {
			tot.drained += d.broker.DrainMaintenance(ctx)
		})
		flush()
	}

	setVictim(false)
	d.eachWorker(func(w *worker) {
		for i := 0; i < degradedGets; i++ {
			w.do(w.gen.nextGet(), deg)
		}
	})
	tot.repairSec += r.control("repair.pass", c, func(ctx context.Context) {
		rep, err := d.broker.Repair(ctx, engine.RepairActive)
		flush()
		if err != nil {
			r.ctlFail("repair", err)
		}
		tot.repair.Affected += rep.Affected
		tot.repair.Repaired += rep.Repaired
		tot.repair.Swapped += rep.Swapped
		tot.repair.Skipped += rep.Skipped
		tot.repair.ChunksWritten += rep.ChunksWritten
		tot.repair.BytesWritten += rep.BytesWritten
	})
	setVictim(true)
	// The recovered provider still holds the chunks repair replaced.
	// They must go now: replayed after a later swap has reused the key,
	// a postponed delete destroys the live chunk (README, "found while
	// sizing").
	d.broker.ProcessPendingDeletes(context.Background())
	d.eachWorker(func(w *worker) {
		for i := 0; i < healthyOps; i++ {
			w.do(w.gen.next(), fg)
		}
	})
	d.clock.Advance(1) // next sampling period
	tot.optSec += r.control("optimizer.pass", c, func(ctx context.Context) {
		rep, err := d.broker.Optimize(ctx)
		flush()
		if err != nil {
			r.ctlFail("optimize", err)
		}
		tot.scanned += rep.Scanned
		tot.recomputed += rep.Recomputed
		tot.migrated += rep.Migrated
		tot.evaluated += rep.Evaluated
	})
	tot.cycles++
	tot.wall += time.Since(t0)
}

// control times one control-plane call. In a traced run the call gets
// a trace id of its own, so its provider spans attach to it.
func (r *run) control(name string, cycle int, fn func(ctx context.Context)) float64 {
	ctx := context.Background()
	var id string
	var start int64
	traced := r.tr != nil && r.tr.on.Load()
	if traced {
		id = fmt.Sprintf("%s-%d", name, cycle)
		ctx = obs.WithTrace(ctx, obs.NewTrace(id))
		start = r.tr.now()
	}
	r.ctlCalls++
	t0 := time.Now()
	fn(ctx)
	sec := time.Since(t0).Seconds()
	if traced {
		r.tr.addControl(name, id, start, r.tr.now())
	}
	return sec
}

func (r *run) ctlFail(what string, err error) {
	r.ctlErrors++
	fmt.Fprintf(os.Stderr, "bench: control call %s failed: %v\n", what, err)
}

// finalChecks reads every live key back, then checks that the
// streaming paths hold no stripe buffer and settles postponed deletes
// so stored_bytes_per_user_byte sees the resting footprint.
func (r *run) finalChecks() {
	d := r.d
	d.latencyOn.Store(false)
	if r.o.beforeChecks != nil {
		r.o.beforeChecks(d)
	}
	d.broker.ProcessPendingDeletes(context.Background())
	d.eachWorker(func(w *worker) {
		for rank := range w.keys {
			if w.keys[rank].live {
				w.do(op{opGet, w.gen.keyOfRank(rank)}, phaseUntimed)
			}
		}
	})
	if n := d.broker.ReadStats().BufferedStripes; n != 0 {
		r.fail(fmt.Sprintf("read path still holds %d stripe buffers after the run", n))
	}
	if n := d.broker.WriteStats().StripesInFlight; n != 0 {
		r.fail(fmt.Sprintf("write path still holds %d stripes in flight after the run", n))
	}
}

func (r *run) fail(msg string) {
	r.res.Correct = false
	r.res.Notes = append(r.res.Notes, "FAILED: "+msg)
	fmt.Fprintln(os.Stderr, "bench:", msg)
}

// okSamples returns the latencies (sorted, ms) of the successful
// measured ops matching keep, over both clients.
func (r *run) okSamples(keep func(s *sample) bool) []float64 {
	var out []float64
	for _, w := range r.d.workers {
		for i := range w.samples {
			if s := &w.samples[i]; s.ok && keep(s) {
				out = append(out, s.ms)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func isKind(k opKind) func(*sample) bool { return func(s *sample) bool { return s.kind == k } }

// rateSlices is how many equal slices of the window ops_per_s is the
// median over.
const rateSlices = 6

// opsPerSec is the successful foreground ops per second of the last
// measured part. HTTP-loop workloads take the median over equal
// slices of the window, so one noisy-neighbour slice cannot move it.
// small-maint divides by the wall time of its whole cycles: a slower
// repair, drain or optimize lowers it like slower requests do.
func (r *run) opsPerSec() float64 {
	var start, end []float64
	for _, w := range r.d.workers {
		for i := range w.samples {
			if s := &w.samples[i]; s.ok {
				start = append(start, s.doneAt-s.ms/1e3)
				end = append(end, s.doneAt)
			}
		}
	}
	if r.w.maint {
		return float64(len(end)) / r.maint.wall.Seconds()
	}
	return sliceRate(start, end, r.partDur.Seconds(), rateSlices)
}

// userBytes is the payload moved by successful measured ops.
func (r *run) userBytes() int64 {
	return int64(len(r.okSamples(func(*sample) bool { return true }))) * r.w.objectBytes
}

// endToEndMetrics fills the metrics a user of the system would see.
func (r *run) endToEndMetrics() {
	m := r.res.Metrics
	put, get := r.okSamples(isKind(opPut)), r.okSamples(isKind(opGet))
	m["setup_s"] = median(r.setupSec)
	m["put_p50_ms"] = percentile(put, 0.5)
	m["put_p90_ms"] = percentile(put, 0.9)
	m["get_p50_ms"] = percentile(get, 0.5)
	m["get_p90_ms"] = percentile(get, 0.9)
	m["ops_per_s"] = r.opsPerSec()
	m["provider_usd_per_user_gb"] = (r.after.cost - r.before.cost) / cloud.GB(r.userBytes())
	var live int64
	for _, w := range r.d.workers {
		live += w.liveBytes()
	}
	m["stored_bytes_per_user_byte"] = float64(r.d.usedBytes()) / float64(live)
	m["peak_rss_mb"] = r.samp.peakRSSMB()
	r.noteTails(put, get)
}

func (r *run) writeSpans() error {
	if err := os.MkdirAll(r.o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.o.outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", r.w.name, r.o.seed))
	n, err := r.tr.writeSpans(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.res.Metrics["trace.spans"] = float64(n)
	r.res.Notes = append(r.res.Notes, fmt.Sprintf("wrote %d spans to %s", n, path))
	return nil
}
