package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scalia/internal/cloud"
	"scalia/internal/crc32c"
	"scalia/internal/erasure"
	"scalia/internal/obs"
)

// This file is the stripe engine. Everything the broker does to stored
// data is one operation repeated: erasure-code a stripe into n chunks on
// n providers, read it back from the m cheapest of them (§III-B), skip
// the faulty ones (§III-D3), rewrite only what is missing (§IV-E). GET,
// PUT, multipart part staging, migration, swap repair and verification
// are all built from the four pieces below and hold no chunk I/O,
// worker pool or error collection of their own:
//
//   - stripeLayout says where a body's stripes live;
//   - fetch, writeChunks and dropChunks are the only chunk-level read,
//     write and delete, and the only place the per-provider op series
//     and the fetch/decode/fanout stage spans are recorded;
//   - stripePipe runs the stripes of one transfer, a bounded number at a
//     time, charging the shared buffer budget in stripe order;
//   - acquireBuf/releaseBuf are that budget.

// stripeLayout says where the stripes of one stored body — an object
// version, or one staged part of a multipart upload — live: the (m, n)
// coder, the provider behind each chunk slot, the stripe geometry, the
// chunk keys and the per-stripe integrity sums. Reads and writes of
// either kind of body take a layout and nothing else.
// A slot is a row of the systematic code — 0..m-1 the payload cut m
// ways, m..n-1 the parity — so a chunk's content is its slot; which
// provider gets which is decided once, at write time (slotNames).
type stripeLayout struct {
	coder  *erasure.Coder
	stores []cloud.Backend // per chunk slot; nil when the provider left the registry
	names  []string        // provider name per chunk slot
	all    []int           // every slot, 0..n-1: the slot set of a full write or delete

	stripes   int
	stripeLen func(s int) int64
	key       func(s, i int) string
	// sums is the integrity record of each stripe: filled in by
	// writeStripes, checked by every fetch.
	sums []StripeSum
	kept map[int][]byte // a PUT's: the stripes cached of what it replaces (Held), filled by encodeStripe
	// obj and uuid name the object version a stored layout belongs to, so
	// a fetch that rejects a chunk can say whose it was. A part still
	// being staged has neither; nothing reads one.
	obj, uuid string
}

// resolveSlots starts a layout from its chunk->provider map. A coder
// error still returns the resolved slots: deleting chunks needs no coder.
func (e *Engine) resolveSlots(m int, names []string) (*stripeLayout, error) {
	l := &stripeLayout{
		stores: make([]cloud.Backend, len(names)),
		names:  names,
		all:    make([]int, len(names)),
	}
	for i, name := range names {
		l.stores[i], _ = e.b.registry.Store(name)
		l.all[i] = i
	}
	// The coder comes from the package-level cache: it depends only on
	// (m, n), and rebuilding (and Gauss-inverting) the generator matrix
	// per transfer would put a matrix inversion on the hot path.
	var err error
	l.coder, err = erasure.Cached(m, len(names))
	return l, err
}

// layoutOf builds the layout of an object version from its metadata.
func (e *Engine) layoutOf(meta ObjectMeta) (*stripeLayout, error) {
	l, err := e.resolveSlots(meta.M, meta.Chunks)
	l.stripes, l.stripeLen, l.key, l.sums = meta.StripeCount(), meta.stripeLen, meta.chunkKey, meta.Sums
	l.obj, l.uuid = objectName(meta.Container, meta.Key), meta.UUID
	if len(meta.Gens) != 0 && len(meta.Gens) != meta.columns() {
		err = fmt.Errorf("engine: %d generations for %d chunk columns", len(meta.Gens), meta.columns())
	}
	return l, err
}

// partLayout builds the layout of one part of an open upload: the
// draft's placement, the part's own stripe geometry and keys scoped to
// the part and to the attempt at it (gen).
func (e *Engine) partLayout(u *uploadSession, part int, gen uint64, size int64) (*stripeLayout, error) {
	l, err := e.resolveSlots(u.draft.M, u.draft.Chunks)
	stripeBytes := e.b.cfg.StripeBytes
	l.stripes = stripeCount(size, stripeBytes)
	l.stripeLen = func(s int) int64 {
		return min(stripeBytes, size-int64(s)*stripeBytes)
	}
	l.key = func(s, i int) string { return PartChunkKey(u.draft.SKey, part, s, i, gen) }
	return l, err
}

// readCost is what the meter charges one provider for its chunk of a
// stripeLen-byte stripe cut m ways: the chunk's bytes out (never fewer
// than the one an empty stripe stores) plus one operation. It is the
// stripe engine's first ordering: rank sorts by it alone, slotNames by
// it and then, among exact ties, by read latency.
func readCost(pr cloud.Pricing, stripeLen int64, m int) float64 {
	chunk := max(1, (stripeLen+int64(m)-1)/int64(m))
	return cloud.GB(chunk)*pr.BandwidthOutGB + pr.OpsPer1000/1000
}

// rank orders the layout's chunk slots by readCost at their provider,
// cheapest first — the paper's "chunks are read from the m cheapest
// providers" (§III-B). The stripe priced is the first, the full-size one
// of a many-stripe body: the meter charges an operation per stripe, not
// per object. Ties keep slot order, so among equals a read prefers the
// data slots — which slotNames gave to the fastest of the equally cheap
// — and decodes nothing; rank itself never looks at latency. Slots in
// skip and unreachable providers are left out; when fewer than m remain,
// the ranking and an ErrNotEnoughChunks are both returned so the caller
// can still serve cached stripes.
func (l *stripeLayout) rank(skip []int) ([]int, error) {
	m := l.coder.M()
	// Priced once per slot: a price change must not unsettle the sort.
	cost := make([]float64, len(l.names))
	order := make([]int, 0, len(l.names))
	for i, store := range l.stores {
		if slices.Contains(skip, i) || store == nil || !store.Available() {
			continue
		}
		cost[i] = readCost(store.Spec().Pricing, l.stripeLen(0), m)
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[a], cost[b]) })
	if len(order) < m {
		return order, fmt.Errorf("%w: %d of %d providers reachable, need %d",
			ErrNotEnoughChunks, len(order), len(l.names), m)
	}
	return order, nil
}

// fetched is one stripe as fetch read it. chunks has length n, every
// data slot and every extra slot asked for filled, nil at the other slots
// not read or rejected; segs is the payload, the data chunks' payload
// prefixes in slot order, never joined. Both alias what the providers
// hold, and the chunks fetch rebuilt alias scratch: memory lent by
// erasure.ReconstructPooled (nil when nothing was rebuilt, or when m = 1
// made every rebuilt chunk the survivor itself). The holder hands scratch
// back (erasure.ReleaseScratch) once nothing reads those chunks any more,
// or drops it for the garbage collector. got counts the chunks read and
// accepted.
type fetched struct {
	segs, chunks [][]byte
	got          int
	scratch      *[]byte
}

// fetch reads stripe s: it retrieves chunks along the ranked candidate
// order until it holds want of them that pass their stored CRC-32C,
// rebuilds the data chunks it lacks and the extra slots asked for (a
// swap's replaced slots), holds each rebuilt chunk to its slot's sum and
// checks the payload against its own — rotted bytes must not reach a
// client, the stripe cache or a replacement chunk. The code is
// systematic, so the payload's CRC is composed from the data chunks'
// payload prefixes, taken in the pass that checks each chunk's sum.
// want is m for a read and len(order) for verification ("all
// reachable"). A candidate is claimed only while chunks held plus fetches
// in flight are short of want, so a healthy stripe costs exactly want
// provider reads. A fetch that fails and a chunk that fails its sum both
// free their claim for the next (spare) candidate (§III-D3: reads proceed
// without the faulty provider): the stored chunk is the unit of
// integrity, so one rotten chunk is an erasure that costs one extra chunk
// read, not a failed stripe. It is not an outage either — the provider
// answered, so its op series records a success — and the slot is noted
// for the maintenance queue to rewrite (noteRot); the read itself never
// writes. A stripe whose sum record is missing or does not cover every
// slot fails closed before any provider is asked, and a stripe left short
// of m after rejecting a chunk fails with ErrChecksum. On error only got
// is set.
func (e *Engine) fetch(ctx context.Context, l *stripeLayout, s int, order []int, want int, extra []int) (fetched, error) {
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	if s >= len(l.sums) || len(l.sums[s].Chunks) != len(l.names) {
		return fetched{}, fmt.Errorf("%w: stripe %d has no sum for each of its %d chunks", ErrChecksum, s, len(l.names))
	}
	sum, m, size := l.sums[s], l.coder.M(), int(l.stripeLen(s))
	c := l.coder.EncodedChunkSize(size)
	// check says whether data is slot i's chunk — c bytes, its sum —
	// noting heads[i], its payload prefix's CRC.
	heads := make([]uint32, len(l.names))
	check := func(i int, data []byte) bool {
		k := min(payloadLen(size, c, i), len(data))
		heads[i] = crc32c.Update(0, data[:k])
		return len(data) == c && crc32c.Update(heads[i], data[k:]) == sum.Chunks[i]
	}
	chunks := make([][]byte, len(l.names))
	var (
		mu                          sync.Mutex
		got, next, inFlight, rotten int
		verifying                   time.Duration // summed over the workers
	)
	work := func() {
		for {
			mu.Lock()
			if got+inFlight >= want || next >= len(order) || ctx.Err() != nil {
				mu.Unlock()
				return
			}
			i := order[next]
			next++
			inFlight++
			mu.Unlock()

			t0 := time.Now()
			data, err := l.stores[i].Get(ctx, l.key(s, i))
			if ctx.Err() == nil {
				// Cancellation is stream teardown (a range read that got
				// its bytes), not a provider failure — keep it out of the
				// series.
				e.b.observeProviderOp(l.names[i], opGet, t0, err)
				if err != nil {
					e.b.metrics.readFallbacks.Inc()
					tr.Count("fallbacks", 1)
				}
			}
			var rot bool
			var spent time.Duration
			if err == nil {
				t0 = time.Now()
				rot = !check(i, data)
				spent = time.Since(t0)
				if rot {
					e.b.noteRot(tr, l, i)
				}
			}
			mu.Lock()
			inFlight--
			verifying += spent
			switch {
			case rot:
				rotten++
			case err == nil:
				chunks[i] = data
				got++
			}
			mu.Unlock()
		}
	}
	// The calling goroutine is one of the workers, so a single-chunk
	// read (m = 1, or ReadParallelism 1) starts no goroutine at all.
	var wg sync.WaitGroup
	for w := min(e.b.cfg.ReadParallelism, want, len(order)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if got < m {
		if err := ctx.Err(); err != nil {
			return fetched{got: got}, err
		}
		if rotten > 0 {
			return fetched{got: got}, fmt.Errorf("%w: stripe %d: %d chunks failed their sum, %d of the %d needed are left",
				ErrChecksum, s, rotten, got, m)
		}
		return fetched{got: got}, fmt.Errorf("%w: fetched %d, need %d", ErrNotEnoughChunks, got, m)
	}
	e.b.observeStage(tr, "fetch", start)
	start = time.Now()
	f := fetched{chunks: chunks, got: got}
	var err error
	var lost []int // the data and extra slots to rebuild, ascending
	for _, i := range l.all {
		if chunks[i] == nil && (i < m || slices.Contains(extra, i)) {
			lost = append(lost, i)
		}
	}
	// held says whether rebuilt slot i holds its slot's sum.
	held := func(i int) bool { return check(i, chunks[i]) }
	if len(lost) > 0 {
		if lost[0] < m {
			e.b.metrics.readReconstructed.Inc()
			tr.Count("stripes_reconstructed", 1)
		}
		if m == 1 {
			// Every generator row of a (1, n) code is [1]: each chunk is
			// the payload, so the survivor is every lost chunk, byte for
			// byte. It passed its own slot's sum, so it holds a lost
			// slot's exactly when the two stored sums agree, and its
			// payload prefix is none of it or all of it (c bytes): the
			// head is 0 or the survivor's sum. Nothing is summed again.
			j := slices.IndexFunc(chunks, func(ch []byte) bool { return ch != nil })
			for _, i := range lost {
				chunks[i] = chunks[j]
				if payloadLen(size, c, i) == c {
					heads[i] = sum.Chunks[j]
				}
			}
			held = func(i int) bool { return sum.Chunks[i] == sum.Chunks[j] }
		} else if f.scratch, err = l.coder.ReconstructPooled(chunks, lost); err != nil {
			return fetched{got: got}, err
		}
	}
	e.b.observeStage(tr, "decode", start)
	start = time.Now()
	ok := !slices.ContainsFunc(lost, func(i int) bool { return !held(i) })
	f.segs = make([][]byte, m)
	for i := range f.segs {
		k := payloadLen(size, c, i)
		f.segs[i] = chunks[i][:k:k]
	}
	payload := payloadSum(heads[:m], size, c)
	e.b.observeStageFor(tr, "verify", verifying+time.Since(start))
	if !ok || payload != sum.Payload {
		erasure.ReleaseScratch(f.scratch)
		return fetched{got: got}, fmt.Errorf("%w: stripe %d", ErrChecksum, s)
	}
	return f, nil
}

// payloadLen is how much of a size-byte stripe's payload the chunk in
// slot i holds, chunks being c bytes: data slot i holds bytes [i·c,
// (i+1)·c) of it, clamped; a parity slot none (size ≤ m·c).
func payloadLen(size, c, i int) int { return min(max(size-i*c, 0), c) }

// payloadSum composes a stripe's payload CRC-32C from heads, the CRCs of
// its m data chunks' payload prefixes in slot order: what a write
// records and fetch checks.
func payloadSum(heads []uint32, size, c int) (sum uint32) {
	for i, h := range heads {
		sum = crc32c.Combine(sum, h, payloadLen(size, c, i))
	}
	return sum
}

// stripeSum completes a freshly encoded stripe's integrity record from
// heads, the CRCs of its m data chunks' payload prefixes, reading no
// payload byte again: a data chunk's sum is its head extended over its
// zero padding, and the payload's is composed from the heads. A parity
// chunk whose generator row is all ones — the XOR of the data chunks: the
// single parity of every code, every replica of a (1, n) one — is summed
// by derivation. A CRC is affine over GF(2), so the XOR of m equal-length
// chunks has the XOR of their sums, the conditioning cancelling in pairs:
// an even m leaves one crc32c.Zeros(c) to take back. Any other parity
// chunk is summed over its bytes, right after the encode wrote them.
// fetch holds every chunk to its sum on every read, so a fold that went
// wrong fails there; a derived sum is the correct parity's.
func stripeSum(coder *erasure.Coder, chunks [][]byte, heads []uint32, size int) StripeSum {
	m, c := len(heads), len(chunks[0])
	sum := StripeSum{Payload: payloadSum(heads, size, c), Chunks: make([]uint32, len(chunks))}
	var xor uint32
	if m%2 == 0 {
		xor = crc32c.Zeros(c)
	}
	for i, head := range heads {
		pad := c - payloadLen(size, c, i)
		sum.Chunks[i] = crc32c.Combine(head, crc32c.Zeros(pad), pad)
		xor ^= sum.Chunks[i]
	}
	for i := m; i < len(chunks); i++ {
		if coder.XORParity(i) {
			sum.Chunks[i] = xor
		} else {
			sum.Chunks[i] = crc32c.Checksum(chunks[i])
		}
	}
	return sum
}

// writeChunks writes the given slots of stripe s (l.all for a full
// stripe, a swap's replaced slots for a repair) to their providers
// concurrently, the calling goroutine writing the first itself. It
// returns once every write is done, with the writes' joined error: the
// slower writes run to completion so a rollback sees a settled picture
// and the caller may recycle the chunks. The fanout stage is the time to
// the last write's return.
// No key is ever written twice — a version's keys carry its UUID, a part
// attempt's and a swapped slot's their generation — so no write meets a
// chunk a row, a reader or a queued delete still names.
func (e *Engine) writeChunks(ctx context.Context, l *stripeLayout, s int, chunks [][]byte, slots []int) error {
	start := time.Now()
	errs, took := make([]error, len(slots)), make([]time.Duration, len(slots))
	put := func(j int) {
		defer func() { took[j] = time.Since(start) }()
		i := slots[j]
		if l.stores[i] == nil {
			errs[j] = fmt.Errorf("engine: provider %s vanished", l.names[i])
			return
		}
		t0 := time.Now()
		err := l.stores[i].Put(ctx, l.key(s, i), chunks[i])
		e.b.observeProviderOp(l.names[i], opPut, t0, err)
		if err != nil {
			errs[j] = fmt.Errorf("engine: chunk write to %s: %w", l.names[i], err)
		}
	}
	var wg sync.WaitGroup
	for j := 1; j < len(slots); j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			put(j)
		}(j)
	}
	put(0)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	e.b.observeStageFor(obs.TraceFrom(ctx), "fanout", slices.Max(took))
	return nil
}

// dropChunks deletes the chunks of stripes [0, upto) at the given slots —
// each at a provider of its own, so in parallel — and returns the slots
// that still hold some, and how many: a chunk is gone once its delete
// succeeds or finds nothing, and any other answer — a refusal, a transport
// error, a 5xx — leaves it for a later pass (§III-D3). A provider that is
// down is not asked; one that left the registry took its chunks along. It
// is the one delete primitive and the reaper its one caller: deletion must
// survive request cancellation, so it runs on a background context.
func (b *Broker) dropChunks(l *stripeLayout, upto int, slots []int) (held []int, left int) {
	kept := make([]int, len(slots))
	var wg sync.WaitGroup
	for j, i := range slots {
		st := l.stores[i]
		if st == nil {
			continue
		}
		if !st.Available() {
			kept[j] = upto
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < upto; s++ {
				t0 := time.Now()
				err := st.Delete(context.Background(), l.key(s, i))
				b.observeProviderOp(l.names[i], opDelete, t0, err)
				if err != nil && !errors.Is(err, cloud.ErrNotFound) {
					kept[j]++
				}
			}
		}()
	}
	wg.Wait()
	for j, i := range slots {
		if left += kept[j]; kept[j] > 0 {
			held = append(held, i)
		}
	}
	return held, left
}

// stripeOut is what one stripe of a pipe yields: a read's payload, by
// segment. slot marks a result that still holds its stripe's budget slot
// (a fetched stripe waiting to drain to the client); whoever drops it
// must release the slot. scratch is the fetch's (see fetched): whoever
// releases the slot may hand it back with it, or drop it for the GC.
type stripeOut struct {
	segs    [][]byte
	slot    bool
	scratch *[]byte
}

// stripeTask is one admitted stripe of a pipe.
type stripeTask struct {
	s    int
	out  stripeOut
	err  error
	done chan struct{} // closed when the work returns; nil when it ran inline
}

// stripePipe runs the stripes [next, end) of one transfer, at most depth
// at a time, and hands the results back in stripe order. It is the one
// bounded, cancellable, first-error-wins loop under the read path's
// read-ahead, the write pipeline, swap repair and verification.
//
// Stripes are admitted strictly in stripe order on the caller's
// goroutine (inside take): a budget slot is reserved first, then stage
// runs — the serial part of the stripe (a write reads the body into its
// chunks, folding the parity and the sums in as it goes) — and the work
// function it returns runs concurrently with up to depth-1 other stripes
// (a write's sends the chunks out). The budget rule that
// keeps any mix of transfers deadlock-free: a pipe waits for a slot
// only while it has no stripe outstanding; otherwise it merely tries,
// and falls back to finishing its own oldest stripe first. A held slot
// therefore always drains without needing another acquire.
//
// With min(depth, stripes) == 1 the work runs inline in take and nothing
// runs ahead: a one-stripe transfer starts no goroutine and makes no
// channel.
type stripePipe struct {
	b         *Broker
	ctx       context.Context
	cancel    context.CancelFunc
	gauge     *bufGauge // budget direction charged per stripe; nil = unbudgeted
	depth     int
	next, end int
	stage     func(ctx context.Context, s int) (work func() (stripeOut, error), err error)
	window    []*stripeTask // admitted and not yet taken, in stripe order

	once sync.Once
	err  error // first error; set under once
}

// newStripePipe builds the pipe for stripes [from, end). A depth below 1
// (a negative PrefetchStripes or WritePipelineDepth) means 1: the same
// loop, one stripe at a time.
func (b *Broker) newStripePipe(ctx context.Context, gauge *bufGauge, depth, from, end int,
	stage func(ctx context.Context, s int) (func() (stripeOut, error), error)) *stripePipe {
	p := &stripePipe{b: b, gauge: gauge, depth: max(1, min(depth, end-from)), next: from, end: end, stage: stage}
	p.ctx, p.cancel = context.WithCancel(ctx)
	return p
}

// fail records the pipe's first error, cancels everything in flight and
// returns the error the transfer ends with.
func (p *stripePipe) fail(err error) error {
	p.once.Do(func() {
		p.err = err
		p.cancel()
	})
	return p.err
}

// run executes one admitted stripe's work and settles its budget slot:
// the slot goes back unless the result carries it on.
func (p *stripePipe) run(t *stripeTask, work func() (stripeOut, error)) {
	t.out, t.err = work()
	if t.err != nil || !t.out.slot {
		p.b.releaseBuf(p.gauge)
	}
	if t.err != nil {
		p.fail(t.err) //nolint:errcheck // take reports it
	}
}

// admit tops the window up to depth stripes, in stripe order. It waits
// for a budget slot only when mayWait is set and nothing is outstanding.
func (p *stripePipe) admit(mayWait bool) error {
	for p.next < p.end && len(p.window) < p.depth && p.ctx.Err() == nil {
		ok, err := p.b.acquireBuf(p.ctx, p.gauge, mayWait && len(p.window) == 0)
		if err != nil {
			return p.fail(err)
		}
		if !ok {
			break // budget exhausted: finish our own oldest stripe first
		}
		work, err := p.stage(p.ctx, p.next)
		if err != nil {
			p.b.releaseBuf(p.gauge)
			return p.fail(err)
		}
		t := &stripeTask{s: p.next}
		p.next++
		p.window = append(p.window, t)
		if p.depth == 1 {
			p.run(t, work)
			break
		}
		t.done = make(chan struct{})
		go func() {
			defer close(t.done)
			p.run(t, work)
		}()
	}
	return nil
}

// take returns the oldest outstanding stripe's result, io.EOF after the
// last stripe. It fills the window before waiting for that stripe and
// again after it, so while the caller consumes stripe s the next depth
// stripes are already running. Any stripe's failure ends the transfer
// with the first error recorded.
func (p *stripePipe) take() (int, stripeOut, error) {
	if err := p.admit(true); err != nil {
		return 0, stripeOut{}, err
	}
	if len(p.window) == 0 {
		if p.next < p.end {
			return 0, stripeOut{}, p.fail(p.ctx.Err())
		}
		return 0, stripeOut{}, io.EOF
	}
	t := p.window[0]
	p.window = p.window[1:]
	if t.done != nil {
		<-t.done
	}
	if t.err != nil {
		return t.s, stripeOut{}, p.fail(t.err)
	}
	if p.depth > 1 {
		p.admit(false) //nolint:errcheck // recorded by fail; the next take reports it
	}
	return t.s, t.out, nil
}

// readAhead raises the depth of a pipe opened at depth 1 and starts the
// next stripes in the background at once.
func (p *stripePipe) readAhead(depth int) {
	if p.depth = max(1, depth); p.depth > 1 {
		p.admit(false) //nolint:errcheck // recorded by fail; the next take reports it
	}
}

// close cancels what is still running, waits for it and hands back the
// budget slots of results nobody took. After close no work of the pipe
// is in flight, so stripes [from, next) are the only ones that can have
// touched a provider.
func (p *stripePipe) close() {
	p.cancel()
	for _, t := range p.window {
		if t.done != nil {
			<-t.done
		}
		if t.err == nil && t.out.slot {
			p.b.releaseBuf(p.gauge)
		}
	}
	p.window = nil
}

// drain runs the pipe to its end for callers that need no results —
// writes, swap repair, verification — and returns the first error.
func (p *stripePipe) drain() error {
	defer p.close()
	for {
		if _, _, err := p.take(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// bufGauge counts the stripe buffers one direction (reads or writes)
// holds right now and at its peak; ReadStats and WriteStats report them.
type bufGauge struct {
	inUse, peak atomic.Int64
}

// acquireBuf reserves one stripe-buffer slot of the broker-wide
// MaxBufferBytes budget for the direction g counts (nil g = an
// unbudgeted transfer). With wait false it only tries, reporting
// whether it got one. A read's slot is released once the stripe's bytes
// have drained to the client, a write's once its chunks have fanned
// out; neither needs another acquire first (see stripePipe), so a
// waiting acquire always unblocks. The gauges move even when the budget
// is unbounded — they double as the stripes-in-flight counters.
func (b *Broker) acquireBuf(ctx context.Context, g *bufGauge, wait bool) (bool, error) {
	if g == nil {
		return true, nil
	}
	if b.bufSem != nil {
		select {
		case b.bufSem <- struct{}{}:
		default:
			if !wait {
				return false, nil
			}
			select {
			case b.bufSem <- struct{}{}:
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
	}
	bumpPeak(&g.peak, g.inUse.Add(1))
	return true, nil
}

// releaseBuf returns a slot acquired for g to the budget.
func (b *Broker) releaseBuf(g *bufGauge) {
	if g == nil {
		return
	}
	g.inUse.Add(-1)
	if b.bufSem != nil {
		<-b.bufSem
	}
}
