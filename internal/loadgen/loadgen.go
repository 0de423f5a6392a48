// Package loadgen maps the registered workload scenarios (or imported
// NDJSON traces) onto real HTTP operations against a live Scalia
// deployment, at configurable concurrency and offered rate, with a
// replayable chaos schedule executing admin-API events mid-run.
//
// The generator is open loop: a single dispatcher schedules op i at
// start + i/rate regardless of how fast the deployment absorbs it, and
// latency is measured from that scheduled dispatch time — a saturated
// deployment shows its queueing delay instead of silently throttling
// the probe (no coordinated omission). Execution is deterministic at
// the op-sequence level: the same scenario, seed and op cap always
// dispatch the same ops in the same order, and the optional op trace
// (NDJSON) captures that order byte-for-byte for replay diffing.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"scalia"
	"scalia/client"
	"scalia/internal/obs"
	"scalia/internal/workload"
)

// Defaults for Config zero values.
const (
	DefaultWorkers        = 8
	DefaultRate           = 100.0
	DefaultContainer      = "loadgen"
	DefaultMaxObjectBytes = 1 << 20
)

// Config parameterizes one load run.
type Config struct {
	// Client speaks to the target deployment. Required.
	Client *client.Client
	// Scenario supplies the op mix. Required.
	Scenario workload.Scenario
	// Container namespaces the run's objects (default "loadgen").
	Container string
	// Seed drives op shuffling; same seed = same op sequence.
	Seed uint64
	// Workers is the executor pool size (default 8).
	Workers int
	// Rate is the offered op rate per second (default 100).
	Rate float64
	// Duration: 0 runs exactly one pass over the compiled ops (fully
	// deterministic volume); > 0 cycles the op sequence until the
	// elapsed wall time reaches it.
	Duration time.Duration
	// MaxOps caps the compiled sequence (default workload.DefaultMaxOps).
	MaxOps int
	// MaxObjectBytes clamps scenario object sizes so heavyweight
	// scenarios (gallery: 2 GiB archives) stay runnable; negative
	// disables the clamp. Default 1 MiB.
	MaxObjectBytes int64
	// Chaos, when set, executes against the deployment while the load
	// runs.
	Chaos *Schedule
	// OpTrace, when set, receives the dispatched op sequence as NDJSON:
	// a header line, then one record per dispatched op. Two runs with
	// equal config produce byte-identical traces.
	OpTrace io.Writer
}

type task struct {
	op  workload.Op
	due time.Time
}

// objGate serializes writers against readers per object so a paced Get
// never observes a half-replayed Put of the same object, while distinct
// objects proceed in parallel.
type objGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers int
	writer  bool
}

func (g *objGate) lock(write bool) {
	g.mu.Lock()
	if write {
		for g.writer || g.readers > 0 {
			g.cond.Wait()
		}
		g.writer = true
	} else {
		for g.writer {
			g.cond.Wait()
		}
		g.readers++
	}
	g.mu.Unlock()
}

func (g *objGate) unlock(write bool) {
	g.mu.Lock()
	if write {
		g.writer = false
	} else {
		g.readers--
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

type gateTable struct {
	mu    sync.Mutex
	gates map[string]*objGate
}

func (t *gateTable) get(obj string) *objGate {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.gates[obj]
	if g == nil {
		g = &objGate{}
		g.cond = sync.NewCond(&g.mu)
		t.gates[obj] = g
	}
	return g
}

// runner owns the mutable state shared by the worker pool.
type runner struct {
	cfg     Config
	payload []byte
	gates   gateTable
	lat     *obs.HistogramVec

	mu           sync.Mutex
	counts       map[string]int64
	errs         map[string]int64
	errsByCode   map[string]map[string]int64
	totalErrCode map[string]int64
}

func (r *runner) record(kind string, since time.Duration, err error) {
	r.lat.With(kind).Observe(since.Seconds())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[kind]++
	if err != nil {
		code := errCode(err)
		r.errs[kind]++
		m := r.errsByCode[kind]
		if m == nil {
			m = map[string]int64{}
			r.errsByCode[kind] = m
		}
		m[code]++
		r.totalErrCode[code]++
	}
}

// errCode buckets an operation error by its typed sentinel so the
// report can distinguish chaos-induced 404s from transport failures.
func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, scalia.ErrObjectNotFound):
		return "not_found"
	case errors.Is(err, scalia.ErrUploadNotFound):
		return "upload_not_found"
	case errors.Is(err, scalia.ErrPreconditionFailed):
		return "precondition_failed"
	case errors.Is(err, scalia.ErrInvalidArgument):
		return "invalid_argument"
	case errors.Is(err, scalia.ErrRangeNotSatisfiable):
		return "range_not_satisfiable"
	case errors.Is(err, scalia.ErrInfeasiblePlacement):
		return "infeasible_placement"
	case errors.Is(err, scalia.ErrProviderUnavailable):
		return "provider_unavailable"
	case errors.Is(err, scalia.ErrProviderOverCapacity):
		return "over_capacity"
	case errors.Is(err, scalia.ErrObjectTooLarge):
		return "too_large"
	case errors.Is(err, scalia.ErrNotEnoughChunks):
		return "not_enough_chunks"
	case errors.Is(err, scalia.ErrChecksum):
		return "checksum_mismatch"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "transport"
	}
}

// execute performs one op against the deployment. Get bodies stream to
// io.Discard — a mid-stream failure (e.g. a chaos outage racing the
// read) is charged to the op like any other error.
func (r *runner) execute(ctx context.Context, op workload.Op) error {
	c := r.cfg.Client
	switch op.Kind {
	case workload.OpPut:
		return putErr(c.Put(ctx, r.cfg.Container, op.Object, r.payload[:op.Size]))
	case workload.OpGet:
		rc, _, err := c.GetReader(ctx, r.cfg.Container, op.Object)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return err
	case workload.OpDelete:
		return c.Delete(ctx, r.cfg.Container, op.Object)
	default:
		return fmt.Errorf("loadgen: unknown op kind %v", op.Kind)
	}
}

func putErr(_ scalia.ObjectMeta, err error) error { return err }

// traceHeader and traceRecord are the NDJSON op-trace line shapes.
type traceHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Scenario  string `json:"scenario"`
	Seed      uint64 `json:"seed"`
	Ops       int    `json:"ops"`
	Container string `json:"container"`
}

type traceRecord struct {
	Seq    int    `json:"seq"`
	Cycle  int    `json:"cycle"`
	Op     string `json:"op"`
	Object string `json:"obj"`
	Size   int64  `json:"size,omitempty"`
}

// Run executes one load run and returns its report. The context
// cancels the run early (ops already dispatched still drain).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Client == nil {
		return nil, errors.New("loadgen: Config.Client is required")
	}
	if cfg.Scenario == nil {
		return nil, errors.New("loadgen: Config.Scenario is required")
	}
	if cfg.Container == "" {
		cfg.Container = DefaultContainer
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = workload.DefaultMaxOps
	}
	if cfg.MaxObjectBytes == 0 {
		cfg.MaxObjectBytes = DefaultMaxObjectBytes
	}

	ops := workload.CompileOps(cfg.Scenario, cfg.Seed, cfg.MaxOps)
	if len(ops) == 0 {
		return nil, errors.New("loadgen: scenario compiled to zero ops")
	}
	var maxSize int64
	for i := range ops {
		if cfg.MaxObjectBytes > 0 && ops[i].Size > cfg.MaxObjectBytes {
			ops[i].Size = cfg.MaxObjectBytes
		}
		if ops[i].Size > maxSize {
			maxSize = ops[i].Size
		}
	}

	r := &runner{
		cfg:          cfg,
		payload:      makePayload(maxSize, cfg.Seed),
		gates:        gateTable{gates: map[string]*objGate{}},
		counts:       map[string]int64{},
		errs:         map[string]int64{},
		errsByCode:   map[string]map[string]int64{},
		totalErrCode: map[string]int64{},
	}
	reg := obs.NewRegistry()
	r.lat = reg.HistogramVec("loadgen_op_duration_seconds",
		"Latency from scheduled dispatch to completion, per op type.", "op")

	before, beforeErr := cfg.Client.Stats(ctx)

	// Seed phase (untimed): Put each object once, in first-appearance
	// order, so paced Gets and Deletes always target objects this run
	// wrote — even when worker reordering runs a Get ahead of the
	// trace's own Put.
	seedOps, seedErrs := r.seedNamespace(ctx, ops)

	if cfg.OpTrace != nil {
		hdr, err := json.Marshal(traceHeader{
			Format: "scalia-loadgen-ops", Version: 1,
			Scenario: cfg.Scenario.Name(), Seed: cfg.Seed,
			Ops: len(ops), Container: cfg.Container,
		})
		if err != nil {
			return nil, err
		}
		if _, err := cfg.OpTrace.Write(append(hdr, '\n')); err != nil {
			return nil, fmt.Errorf("loadgen: op trace: %w", err)
		}
	}

	start := time.Now()

	chaosCtx, stopChaos := context.WithCancel(ctx)
	defer stopChaos()
	chaosDone := make(chan []ExecutedEvent, 1)
	go func() { chaosDone <- cfg.Chaos.run(chaosCtx, start, cfg.Client) }()

	tasks := make(chan task, 4*cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				kind := t.op.Kind.String()
				write := t.op.Kind != workload.OpGet
				g := r.gates.get(t.op.Object)
				g.lock(write)
				err := r.execute(ctx, t.op)
				g.unlock(write)
				r.record(kind, time.Since(t.due), err)
			}
		}()
	}

	// Open-loop dispatcher: op i is due at start + i/rate; the trace
	// records dispatch order, which is single-threaded and so
	// reproducible run-to-run.
	var dispatchErr error
dispatch:
	for i := 0; ; i++ {
		if cfg.Duration <= 0 {
			if i >= len(ops) {
				break
			}
		} else if time.Since(start) >= cfg.Duration {
			break
		}
		op := ops[i%len(ops)]
		due := start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				break dispatch
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break
		}
		if cfg.OpTrace != nil {
			rec, err := json.Marshal(traceRecord{
				Seq: i, Cycle: i / len(ops), Op: op.Kind.String(),
				Object: op.Object, Size: op.Size,
			})
			if err != nil {
				dispatchErr = err
				break
			}
			if _, err := cfg.OpTrace.Write(append(rec, '\n')); err != nil {
				dispatchErr = fmt.Errorf("loadgen: op trace: %w", err)
				break
			}
		}
		tasks <- task{op: op, due: due}
	}
	close(tasks)
	wg.Wait()
	elapsed := time.Since(start)

	stopChaos()
	chaos := <-chaosDone

	rep := r.buildReport(reg, elapsed, seedOps, seedErrs, chaos)
	if after, err := cfg.Client.Stats(ctx); err == nil && beforeErr == nil {
		rep.StatsDelta = diffStats(before, after)
	}
	return rep, dispatchErr
}

// seedNamespace puts every distinct object once before pacing starts.
// Uses the worker count for parallelism but stays untimed.
func (r *runner) seedNamespace(ctx context.Context, ops []workload.Op) (int64, int64) {
	type seed struct {
		obj  string
		size int64
	}
	seen := map[string]bool{}
	var order []seed
	for _, op := range ops {
		if op.Kind == workload.OpPut && !seen[op.Object] {
			seen[op.Object] = true
			order = append(order, seed{op.Object, op.Size})
		}
	}
	var errs int64
	var mu sync.Mutex
	sem := make(chan struct{}, r.cfg.Workers)
	var wg sync.WaitGroup
	for _, s := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func(s seed) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := r.cfg.Client.Put(ctx, r.cfg.Container, s.obj, r.payload[:s.size]); err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return int64(len(order)), errs
}

func (r *runner) buildReport(reg *obs.Registry, elapsed time.Duration,
	seedOps, seedErrs int64, chaos []ExecutedEvent) *Report {
	r.mu.Lock()
	defer r.mu.Unlock()

	quantiles := map[string]obs.HistogramSnapshot{}
	for _, lh := range reg.Histograms("loadgen_op_duration_seconds") {
		quantiles[lh.Labels["op"]] = lh.Snapshot
	}

	opStats := make(map[string]OpStats, len(r.counts))
	var totalOps, totalErrs int64
	for kind, n := range r.counts {
		s := OpStats{Count: n, Errors: r.errs[kind]}
		if snap, ok := quantiles[kind]; ok {
			s.P50Ms = snap.Quantile(0.50) * 1e3
			s.P90Ms = snap.Quantile(0.90) * 1e3
			s.P99Ms = snap.Quantile(0.99) * 1e3
		}
		if m := r.errsByCode[kind]; len(m) > 0 {
			s.ErrorsByCode = m
		}
		opStats[kind] = s
		totalOps += n
		totalErrs += s.Errors
	}

	rep := &Report{
		Schema:            ReportSchema,
		Scenario:          r.cfg.Scenario.Name(),
		Seed:              r.cfg.Seed,
		Workers:           r.cfg.Workers,
		OfferedRatePerSec: r.cfg.Rate,
		DurationSeconds:   elapsed.Seconds(),
		SeedOps:           seedOps,
		SeedErrors:        seedErrs,
		TotalOps:          totalOps,
		TotalErrors:       totalErrs,
		Ops:               opStats,
		Chaos:             chaos,
	}
	if len(r.totalErrCode) > 0 {
		rep.ErrorsByCode = r.totalErrCode
	}
	if elapsed > 0 {
		rep.AchievedRatePerSec = float64(totalOps) / elapsed.Seconds()
	}
	if totalOps > 0 {
		rep.ErrorRate = float64(totalErrs) / float64(totalOps)
	}
	return rep
}

// makePayload builds one shared pattern buffer; every Put slices a
// prefix of it. The pattern is seed-dependent but cheap — the content
// only has to be stable for a given seed, not random.
func makePayload(n int64, seed uint64) []byte {
	if n <= 0 {
		return nil
	}
	block := make([]byte, 256)
	for i := range block {
		block[i] = byte(uint64(i)*1103515245 + seed)
	}
	return bytes.Repeat(block, int((n+255)/256))[:n]
}
