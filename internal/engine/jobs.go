package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the asynchronous maintenance-jobs layer behind
// POST /v1/repair and /v1/optimize: a pass over millions of objects
// cannot hold an HTTP request open, so dispatch returns a job resource
// immediately (202 + Location) and the pass runs on a broker-owned
// goroutine. GET /v1/jobs/{id} serves live progress and, once the pass
// completes, the final RepairReport/OptimizeReport.

// JobKind names what a job runs.
type JobKind string

// Job kinds.
const (
	JobRepair   JobKind = "repair"
	JobOptimize JobKind = "optimize"
)

// JobState is a job's lifecycle state.
type JobState string

// Job states.
const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobView is the wire representation of one maintenance job.
type JobView struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	// Policy is the repair policy ("wait" or "active"); empty for
	// optimize jobs.
	Policy     string     `json:"policy,omitempty"`
	StartedAt  time.Time  `json:"startedAt"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
	// Processed counts objects the running pass has examined so far —
	// the live progress counter.
	Processed int64           `json:"processed"`
	Error     string          `json:"error,omitempty"`
	Repair    *RepairReport   `json:"repair,omitempty"`
	Optimize  *OptimizeReport `json:"optimize,omitempty"`
}

// JobList is the paginated job listing, shaped like the object listing
// (prefix/limit/after → truncated/next).
type JobList struct {
	Jobs      []JobView `json:"jobs"`
	Truncated bool      `json:"truncated"`
	Next      string    `json:"next,omitempty"`
}

type jobRecord struct {
	mu        sync.Mutex
	view      JobView
	processed atomic.Int64
}

func (r *jobRecord) snapshot() JobView {
	r.mu.Lock()
	v := r.view
	r.mu.Unlock()
	v.Processed = r.processed.Load()
	return v
}

type jobRegistry struct {
	mu   sync.Mutex
	seq  uint64
	jobs map[string]*jobRecord
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*jobRecord)}
}

// add registers a new running job. IDs are zero-padded sequence numbers
// so lexicographic order — the pagination order — is creation order.
func (jr *jobRegistry) add(kind JobKind, policy string, now time.Time) *jobRecord {
	jr.mu.Lock()
	jr.seq++
	rec := &jobRecord{view: JobView{
		ID:        fmt.Sprintf("j%08d", jr.seq),
		Kind:      kind,
		State:     JobRunning,
		Policy:    policy,
		StartedAt: now,
	}}
	jr.jobs[rec.view.ID] = rec
	jr.mu.Unlock()
	return rec
}

func (jr *jobRegistry) get(id string) (*jobRecord, bool) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	rec, ok := jr.jobs[id]
	return rec, ok
}

// list returns jobs whose ID has the given prefix, sorted by ID,
// starting strictly after the cursor, at most limit entries.
func (jr *jobRegistry) list(prefix, after string, limit int) JobList {
	jr.mu.Lock()
	ids := make([]string, 0, len(jr.jobs))
	for id := range jr.jobs {
		if prefix != "" && !strings.HasPrefix(id, prefix) {
			continue
		}
		if after != "" && id <= after {
			continue
		}
		ids = append(ids, id)
	}
	jr.mu.Unlock()
	sort.Strings(ids)

	out := JobList{Jobs: []JobView{}}
	for _, id := range ids {
		if len(out.Jobs) == limit {
			out.Truncated = true
			out.Next = out.Jobs[len(out.Jobs)-1].ID
			break
		}
		if rec, ok := jr.get(id); ok {
			out.Jobs = append(out.Jobs, rec.snapshot())
		}
	}
	return out
}

// --- live progress plumbing ---

// progressKey threads the running job's progress counter through the
// pass context, so each shard of a pass increments it per object
// without the broker tracking "the current job".
type progressKey struct{}

func withProgress(ctx context.Context, rec *jobRecord) context.Context {
	return context.WithValue(ctx, progressKey{}, rec)
}

// noteProgress bumps the enclosing job's processed counter by n, if the
// pass runs under a job.
func noteProgress(ctx context.Context, n int64) {
	if rec, ok := ctx.Value(progressKey{}).(*jobRecord); ok {
		rec.processed.Add(n)
	}
}

// --- broker surface ---

// StartRepair dispatches an asynchronous repair pass and returns its
// job resource immediately. The pass runs under the broker's lifetime:
// Close cancels it and returns once the job has finished.
func (b *Broker) StartRepair(_ context.Context, policy RepairPolicy) (JobView, error) {
	rec := b.jobs.add(JobRepair, policy.String(), b.now())
	b.goBackground(func(ctx context.Context) {
		rep, err := b.Repair(withProgress(ctx, rec), policy)
		b.finishJob(rec, func(v *JobView) { v.Repair = &rep }, err)
	})
	return rec.snapshot(), nil
}

// StartOptimize dispatches an asynchronous optimization round and
// returns its job resource immediately, like StartRepair.
func (b *Broker) StartOptimize(context.Context) (JobView, error) {
	rec := b.jobs.add(JobOptimize, "", b.now())
	b.goBackground(func(ctx context.Context) {
		rep, err := b.Optimize(withProgress(ctx, rec))
		b.finishJob(rec, func(v *JobView) { v.Optimize = &rep }, err)
	})
	return rec.snapshot(), nil
}

func (b *Broker) finishJob(rec *jobRecord, attach func(*JobView), err error) {
	done := b.now()
	rec.mu.Lock()
	attach(&rec.view)
	rec.view.FinishedAt = &done
	if err != nil {
		rec.view.State = JobFailed
		rec.view.Error = err.Error()
	} else {
		rec.view.State = JobDone
	}
	rec.mu.Unlock()
}

// ErrJobNotFound marks a lookup of an unknown maintenance job. It wraps
// ErrObjectNotFound, the sentinel remote callers have always seen for it.
var ErrJobNotFound = fmt.Errorf("%w: no such job", ErrObjectNotFound)

// Job returns one job by ID, or ErrJobNotFound.
func (b *Broker) Job(_ context.Context, id string) (JobView, error) {
	rec, ok := b.jobs.get(id)
	if !ok {
		return JobView{}, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	return rec.snapshot(), nil
}

// Jobs lists jobs with the object-listing pagination shape: opts.Limit
// resolves like an object page's (<= 0 or above MaxListLimit means
// MaxListLimit).
func (b *Broker) Jobs(_ context.Context, opts ListOptions) (JobList, error) {
	return b.jobs.list(opts.Prefix, opts.After, pageLimit(opts.Limit)), nil
}
