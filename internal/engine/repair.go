package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"scalia/internal/cloud"
	"scalia/internal/core"
	"scalia/internal/erasure"
	"scalia/internal/obs"
)

// This file is the production repair path (§IV-E). A repair pass scans
// for objects with chunks at unreachable providers and, under the
// active policy, fixes each one the cheapest way the market allows:
//
//  1. chunk swap — when a same-(m,n) replacement set is feasible, m
//     surviving chunks are read, ONLY the missing chunks are re-encoded
//     and written to the swap targets, and the metadata is updated in
//     place ("only the faulty chunk needs to be written, which
//     corresponds to the cheapest case");
//  2. re-stripe — otherwise the object is fully re-placed through the
//     planner and migrated, rewriting every chunk.
//
// Which of the two is decided by core.Decider.Decide — the step the cost
// simulator runs too — so simulated and production repair decisions
// provably agree.
//
// Bit rot is the same repair at a provider that is still there: a chunk
// a read rejected for its sum is rewritten by a swap whose target is the
// provider already holding it (healRot). Either way the replacement is
// copy-on-write: a replaced slot gets chunk keys nothing was ever stored
// under (planSwap), and the chunks it replaces are retired.

// RepairReport summarizes an active-repair pass (§IV-E).
type RepairReport struct {
	Checked  int
	Affected int // objects with chunks at unreachable providers
	Repaired int
	Waited   int // objects left for the provider to recover (wait policy)
	// Swapped and Restriped split Repaired by mechanism: same-(m,n)
	// chunk swaps versus full re-placements.
	Swapped   int
	Restriped int
	// Skipped counts active-policy objects left unrepaired, and Skips
	// splits it by reason (zero counts left out, nil when none):
	//   - "no-plan": no feasible swap or re-stripe on the current market;
	//   - "io-failed": a survivor read or a repair write failed;
	//   - "row-changed": a write, a delete or another repair of the object
	//     landed while the repair copied, and won.
	Skipped int
	Skips   map[string]int
	// ChunksWritten and BytesWritten total the replacement chunks the
	// pass wrote — a swap writes only the missing chunks, a re-stripe
	// all n of every stripe.
	ChunksWritten int
	BytesWritten  int64
}

// skipReason is why an active repair left an object degraded.
type skipReason int

const (
	skipNoPlan skipReason = iota
	skipFailed
	skipRowChanged
	skipReasons
)

// skipNames are the RepairReport.Skips keys.
var skipNames = [skipReasons]string{"no-plan", "io-failed", "row-changed"}

var (
	// errNoPlan is a repair the market offers no way to carry out.
	errNoPlan = errors.New("engine: no feasible repair plan")
	// errRowChanged is a repair or migration whose object's row moved on
	// under it: the other write wins.
	errRowChanged = errors.New("engine: object changed mid-repair")
)

// skipReasonOf classifies the error a repair step ended with.
func skipReasonOf(err error) skipReason {
	switch {
	case errors.Is(err, errNoPlan):
		return skipNoPlan
	case errors.Is(err, errRowChanged), errors.Is(err, ErrObjectNotFound):
		return skipRowChanged
	}
	return skipFailed
}

// skips sums skipped, and names its nonzero reasons.
func skips(skipped [skipReasons]int) (total int, by map[string]int) {
	for why, n := range skipped {
		if n > 0 {
			total += n
			if by == nil {
				by = make(map[string]int, len(skipped))
			}
			by[skipNames[why]] = n
		}
	}
	return total, by
}

// RepairPolicy selects how to treat chunks at failed providers.
type RepairPolicy int

// Repair policies: wait for recovery, or actively move chunks.
const (
	RepairWait RepairPolicy = iota
	RepairActive
)

// String returns the policy's wire name ("wait" or "active").
func (p RepairPolicy) String() string {
	if p == RepairActive {
		return "active"
	}
	return "wait"
}

// ParseRepairPolicy is the inverse of RepairPolicy.String; the empty
// name selects RepairWait.
func ParseRepairPolicy(name string) (RepairPolicy, error) {
	switch name {
	case "", "wait":
		return RepairWait, nil
	case "active":
		return RepairActive, nil
	}
	return RepairWait, fmt.Errorf("%w: repair policy must be wait or active", ErrInvalidArgument)
}

// RepairTotals accumulates repair activity over the broker's lifetime;
// the gateway surfaces it on GET /v1/stats.
type RepairTotals struct {
	Passes        int   `json:"passes"`
	Repaired      int   `json:"repaired"`
	Swapped       int   `json:"swapped"`
	Restriped     int   `json:"restriped"`
	Skipped       int   `json:"skipped"`
	ChunksWritten int   `json:"chunksWritten"`
	BytesWritten  int64 `json:"bytesWritten"`
}

// RepairTotals returns the cumulative repair counters.
func (b *Broker) RepairTotals() RepairTotals {
	b.mu.Lock()
	t := b.repaired
	b.mu.Unlock()
	skipped, _ := skips(t.skipped)
	return RepairTotals{
		Passes: t.passes, Repaired: t.swapped + t.restriped, Swapped: t.swapped,
		Restriped: t.restriped, Skipped: skipped,
		ChunksWritten: t.chunks, BytesWritten: t.bytes,
	}
}

// Repair applies the policy to objects with chunks at unreachable
// providers. The candidate set is enumerated through the provider→
// objects inverted index — only objects holding a chunk on an
// unreachable (or deregistered) provider are examined, so a
// single-provider outage costs O(affected), not O(store). Under
// RepairActive each affected object is repaired by the cheapest
// feasible mechanism — chunk swap first, full re-placement as the
// fallback. Like Optimize, the scan is sharded across all engines
// and runs in parallel.
func (b *Broker) Repair(ctx context.Context, policy RepairPolicy) (RepairReport, error) {
	// One pass at a time: two would do every swap twice (see repairMu).
	b.repairMu.Lock()
	defer b.repairMu.Unlock()
	t := trigger{degraded: true, active: policy == RepairActive}
	_, _, sum, _, err := b.pass(ctx, "repair", t, &b.repaired, func(int64) []string {
		affected := b.provIndex.ObjectsOn(b.unreachableProviders())
		b.metrics.repairIndexed.Add(int64(len(affected)))
		return affected
	})
	rep := RepairReport{
		Checked: sum.checked, Affected: sum.affected, Waited: sum.waited,
		Repaired: sum.swapped + sum.restriped, Swapped: sum.swapped,
		Restriped: sum.restriped, ChunksWritten: sum.chunks, BytesWritten: sum.bytes,
	}
	rep.Skipped, rep.Skips = skips(sum.skipped)
	return rep, err
}

// unreachableProviders returns the indexed providers the market does not
// list — unregistered or unavailable — whose objects a repair pass must
// examine. Cost is O(providers carrying data), not O(objects).
func (b *Broker) unreachableProviders() []string {
	view := b.marketView(b.clock.Period())
	var down []string
	for _, name := range b.provIndex.ProviderNames() {
		if !view.Lists(name) {
			down = append(down, name)
		}
	}
	return down
}

// chunkVolume is what a body of meta's stripe geometry occupies when
// coded (m, n): every stripe cut into n chunks of ceil(len/m) bytes. It
// sizes the writes of a full re-placement and the garbage of a retired
// version alike.
func chunkVolume(meta ObjectMeta, m, n int) (chunks int, bytes int64) {
	stripes := meta.StripeCount()
	chunks = stripes * n
	for s := 0; s < stripes; s++ {
		c := (meta.stripeLen(s) + int64(m) - 1) / int64(m)
		if c == 0 {
			c = 1 // zero-length stripes still produce 1-byte chunks
		}
		bytes += c * int64(n)
	}
	return chunks, bytes
}

// swap is one validated chunk-swap repair: the stored layout (src), the
// layout after it (dst: the replaced slots at the swap targets, under the
// fresh generations of gens, the row's new Gens), and the read order over
// the surviving slots.
type swap struct {
	meta     ObjectMeta
	replaced []int // the slots rewritten, ascending
	src, dst *stripeLayout
	gens     []uint64
	order    []int
}

// planSwap validates a chunk-swap plan against the stored layout and
// resolves both sides of it. The object version's identity (UUID,
// storage key, chunk and payload sums) is preserved by a swap — the
// replacement chunks are the stored ones again, byte for byte — so src
// and dst differ only in the replaced slots: their providers, unless rot
// is healed in place, and always their generation, drawn here, which no
// other plan for the same slot shares. The repair read follows the
// serving path's "m cheapest providers" ranking, with the replaced slots
// excluded.
func (e *Engine) planSwap(meta ObjectMeta, to core.Placement, replaced []int) (*swap, error) {
	n := len(meta.Chunks)
	if to.N() != n || to.M != meta.M || len(replaced) == 0 {
		return nil, fmt.Errorf("engine: swap plan does not match the stored layout")
	}
	moved := meta
	moved.Chunks = slices.Clone(meta.Chunks)
	if moved.Gens = slices.Clone(meta.Gens); moved.Gens == nil {
		moved.Gens = make([]uint64, meta.columns())
	}
	for _, i := range replaced {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("engine: swap plan slot %d out of range", i)
		}
		moved.Chunks[i] = to.Providers[i].Name
		gen := e.b.gen.Add(1)
		for col := i; col < len(moved.Gens); col += n { // the slot's column of every part
			moved.Gens[col] = gen
		}
	}
	sw := &swap{meta: meta, replaced: replaced, gens: moved.Gens}
	var err error
	if sw.src, err = e.layoutOf(meta); err != nil {
		return nil, err
	}
	if sw.dst, err = e.layoutOf(moved); err != nil {
		return nil, err
	}
	for _, i := range replaced {
		if st := sw.dst.stores[i]; st == nil || !st.Available() {
			return nil, fmt.Errorf("%w: swap target %s", cloud.ErrUnavailable, sw.dst.names[i])
		}
	}
	sw.order, err = sw.src.rank(replaced)
	return sw, err
}

// rebuild fetches m surviving chunks of stripe s that pass their sums
// and returns them with the payload verified and the replaced slots
// rebuilt; a parity slot neither fetched nor replaced stays nil. fetch
// holds every replacement to the sum stored for its slot before it is
// returned to be written: a swap keeps the sums, so a replacement that
// does not match would be rot written by the repair itself. A rebuilt
// chunk lives in the pooled scratch fetch returns, the caller's to hand
// back once the writes have returned; at m = 1 the replacement is the
// verified survivor itself and there is no scratch.
func (e *Engine) rebuild(ctx context.Context, sw *swap, s int) (fetched, error) {
	return e.fetch(ctx, sw.src, s, sw.order, sw.meta.M, sw.replaced)
}

// swapRepair executes a chunk swap, of one stripe or many, and commits
// it on its own: stripes are independent, so whole stripes run through a
// pipe — each one rebuilt and its replacement chunks written to the swap
// targets by writeChunks, then its scratch handed back: a backend keeps
// no reference to the bytes once Put returns (`cloud`'s PutCopiesIn
// conformance row) — instead of serializing one provider round-trip
// after another; then the metadata is updated in place under the row
// lock. Only the MVCC version advances, so concurrent readers are never
// cut off: pre-commit readers fall back from the dead provider to the
// survivors, post-commit readers find the replacement chunk already
// written. On any failure, including ctx cancellation mid-swap, every
// replacement chunk already written is discarded and the old metadata
// stays live.
func (e *Engine) swapRepair(ctx context.Context, sw *swap, out *outcome) error {
	wrote := make([]int64, sw.src.stripes)
	p := e.b.newStripePipe(ctx, nil, e.b.cfg.ReadParallelism, 0, sw.src.stripes,
		func(ctx context.Context, s int) (func() (stripeOut, error), error) {
			return func() (stripeOut, error) {
				f, err := e.rebuild(ctx, sw, s)
				if err == nil {
					err = e.writeChunks(ctx, sw.dst, s, f.chunks, sw.replaced)
					wrote[s] = sw.replacedBytes(f.chunks)
					erasure.ReleaseScratch(f.scratch)
				}
				return stripeOut{}, err
			}, nil
		})
	if err := p.drain(); err != nil {
		e.discard(sw.dst, p.next, sw.replaced)
		return err
	}
	var bytes int64
	for _, w := range wrote {
		bytes += w
	}
	return e.commitSwap(sw, bytes, out)
}

// replacedBytes totals the replacement chunks of one rebuilt stripe.
func (sw *swap) replacedBytes(chunks [][]byte) (n int64) {
	for _, i := range sw.replaced {
		n += int64(len(chunks[i]))
	}
	return n
}

// commitSwap installs a completed chunk swap's metadata under the row
// lock, and only if the row the swap was planned from is still the live
// one: a client write or delete that landed while the replacement chunks
// were copying must win, and so must another swap or heal of the same
// version. On failure every replacement chunk is discarded — the keys are
// this swap's alone. On success the swap is counted into out and the
// copies it replaced — at the dead providers, or the rotten ones a heal
// wrote beside — are retired: the swapped row has replicated, and readers
// opened on the row before it pin them until they are done (§III-D3
// postpones the delete at a provider that is still down).
func (e *Engine) commitSwap(sw *swap, bytesWritten int64, out *outcome) error {
	meta, stripes, replaced := sw.meta, sw.src.stripes, sw.replaced
	_, err := e.publish(meta.Container, meta.Key, nil, func(cur *ObjectMeta) (*ObjectMeta, error) {
		if cur == nil || cur.UUID != meta.UUID || cur.SKey != meta.SKey ||
			!slices.Equal(cur.Chunks, meta.Chunks) || !slices.Equal(cur.Gens, meta.Gens) {
			return nil, fmt.Errorf("engine: swap repair: %w", errRowChanged)
		}
		newMeta := *cur
		newMeta.Chunks, newMeta.Gens = sw.dst.names, sw.gens
		return &newMeta, nil
	})
	if err != nil {
		e.discard(sw.dst, stripes, replaced)
		return err
	}
	e.b.reaper.retire(&chunkSet{l: sw.src, upto: stripes, slots: replaced, pin: sw.src.obj})
	e.b.healed(sw.src, replaced)
	out.swapped++
	out.chunks += stripes * len(replaced)
	out.bytes += bytesWritten
	return nil
}

// --- bit rot ---

// rotEntry is the chunk slots of one object version that failed their
// sum on a read, each with its first chunk's key: a reader opened before
// a heal still meets the column the heal replaced, which is not news.
type rotEntry struct {
	uuid  string
	slots map[int]string
}

// maxRotObjects bounds Broker.rot. Past it a rejected chunk is still
// counted and read around, just not noted: the next read of it notes it
// again once there is room.
const maxRotObjects = 1024

// noteRot is what a fetch does about a chunk that failed its sum, besides
// reading a spare: count it — per provider, and on the request's trace —
// note (object, version, slot) in the broker's bounded set and put the
// object on the maintenance queue, whose step rewrites the slot
// (healRot). Nothing is written here: the fetch may be serving a GET.
// Only a slot not yet noted enqueues, so a heal that cannot succeed — more
// than n - m slots of a stripe rotten — is not retried by its own reads.
func (b *Broker) noteRot(tr *obs.Trace, l *stripeLayout, slot int) {
	b.metrics.chunkSumFailures.With(l.names[slot]).Inc()
	tr.Count("corrupt_chunks", 1)
	if l.obj == "" {
		return
	}
	col := l.key(0, slot)
	b.mu.Lock()
	r, fresh := b.rot[l.obj], false
	switch {
	case r != nil && r.uuid == l.uuid:
		if fresh = r.slots[slot] != col; fresh {
			r.slots[slot] = col
		}
	case r != nil || len(b.rot) < maxRotObjects:
		b.rot[l.obj], fresh = &rotEntry{uuid: l.uuid, slots: map[int]string{slot: col}}, true
	}
	b.mu.Unlock()
	if fresh {
		b.maint.enqueue(l.obj)
	}
}

// healed forgets the noted rot of slots a committed swap has rewritten.
func (b *Broker) healed(l *stripeLayout, slots []int) {
	b.mu.Lock()
	if r := b.rot[l.obj]; r != nil && r.uuid == l.uuid {
		for _, i := range slots {
			delete(r.slots, i)
		}
		if len(r.slots) == 0 {
			delete(b.rot, l.obj)
		}
	}
	b.mu.Unlock()
}

// healRot rewrites the chunk slots of meta's version that reads found
// rotten, with the machinery of a chunk swap whose targets are the
// providers already holding them: per stripe, m chunks that pass their
// sums are read and only the noted slots are written, beside the rotten
// chunks, which are retired. It reports whether the row was republished.
// Slots it could not heal stay noted for the next visit; rot noted on a
// version, or a column of it, since replaced is dropped.
func (e *Engine) healRot(ctx context.Context, obj string, meta ObjectMeta, out *outcome) bool {
	e.b.mu.Lock()
	var slots []int
	if r := e.b.rot[obj]; r != nil && r.uuid != meta.UUID {
		delete(e.b.rot, obj)
	} else if r != nil {
		for slot, col := range r.slots {
			if col == meta.chunkKey(0, slot) {
				slots = append(slots, slot)
			} else {
				delete(r.slots, slot)
			}
		}
		if len(r.slots) == 0 {
			delete(e.b.rot, obj)
		}
	}
	e.b.mu.Unlock()
	if len(slots) == 0 {
		return false
	}
	slices.Sort(slots)
	sw, err := e.planSwap(meta, e.b.livePlacement(meta.M, meta.Chunks), slots)
	if err == nil {
		err = e.swapRepair(ctx, sw, out)
	}
	return err == nil
}
