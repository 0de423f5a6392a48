package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"scalia/client"
	"scalia/internal/engine"
)

// objectAPI is the slice of the object interface the load uses, so the
// same op code drives the gateway over HTTP and — for the
// engine.*_direct_ms probe — an engine in process.
type objectAPI interface {
	put(ctx context.Context, container, key string, r io.Reader, size int64) error
	// get opens the object; the caller reads size bytes and closes.
	get(ctx context.Context, container, key string) (io.ReadCloser, int64, error)
}

type httpAPI struct{ cl *client.Client }

func (a *httpAPI) put(ctx context.Context, container, key string, r io.Reader, size int64) error {
	_, err := a.cl.PutReader(ctx, container, key, r, size)
	return err
}

func (a *httpAPI) get(ctx context.Context, container, key string) (io.ReadCloser, int64, error) {
	rc, meta, err := a.cl.GetReader(ctx, container, key)
	return rc, meta.Size, err
}

type directAPI struct{ b *engine.Broker }

func (a *directAPI) put(ctx context.Context, container, key string, r io.Reader, size int64) error {
	_, err := a.b.NextEngine().PutReader(ctx, container, key, r, size, engine.PutOptions{})
	if err == nil {
		a.b.Metadata().Flush() // as the gateway does after every PUT
	}
	return err
}

func (a *directAPI) get(ctx context.Context, container, key string) (io.ReadCloser, int64, error) {
	rc, meta, err := a.b.NextEngine().GetReader(ctx, container, key)
	return rc, meta.Size, err
}

// phase says what happens to an op's sample.
type phase uint8

const (
	phaseUntimed  phase = iota // preload, warm-up, read-back: verified, not recorded
	phaseMeasured              // recorded into the window's samples
	phaseDegraded              // recorded, and marked as a degraded-phase read
)

// sample is one measured foreground op.
type sample struct {
	kind     opKind
	degraded bool
	ok       bool
	doneAt   float64 // seconds since the window opened
	ms       float64
	ttfbMs   float64 // traced runs only
}

// worker is one closed-loop client: one goroutine, one connection, one
// op outstanding, its own key partition.
type worker struct {
	d    *deployment
	id   int
	api  objectAPI
	gen  *opGen
	keys []keyState // by rank within the partition
	buf  []byte     // GET body lands here before it is checked

	windowStart time.Time
	samples     []sample
	attempted   int
	failed      int
}

func newWorker(d *deployment, id int, seed int64, api objectAPI) *worker {
	own := (d.w.preload - id + numClients - 1) / numClients
	return &worker{
		d:   d,
		id:  id,
		api: api,
		gen: newOpGen(seed, id, own, d.w.putShare, d.w.creates, d.w.zipfS),
		buf: make([]byte, d.w.objectBytes),
	}
}

func (w *worker) state(key int) *keyState {
	rank := key / numClients
	for len(w.keys) <= rank {
		w.keys = append(w.keys, keyState{})
	}
	return &w.keys[rank]
}

// liveBytes is the user payload the worker's live keys hold.
func (w *worker) liveBytes() int64 {
	var n int64
	for i := range w.keys {
		if w.keys[i].live {
			n += w.d.w.objectBytes
		}
	}
	return n
}

// do executes one op, verifies it, and records it as ph says. A failed
// or corrupt op is counted, reported on stderr, and never retried. It
// returns the round-trip part of the op (payload stamp and CRC excluded).
func (w *worker) do(o op, ph phase) time.Duration {
	var rt *reqTrace
	ctx := context.Background()
	tr := w.d.tr
	if tr != nil && tr.on.Load() && ph != phaseUntimed {
		rt = &reqTrace{kind: o.kind, bytes: w.d.w.objectBytes}
		ctx = withReqTrace(ctx, rt)
		rt.opStart = tr.now()
	}
	t0 := time.Now()
	var rtDur time.Duration
	var err error
	if o.kind == opPut {
		rtDur, err = w.put(ctx, o.key, rt)
	} else {
		rtDur, err = w.get(ctx, o.key, rt)
	}
	lat := time.Since(t0)
	if rt != nil {
		rt.opEnd = tr.now()
		rt.ok = err == nil
	}
	w.attempted++
	if err != nil {
		w.failed++
		if w.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: client %d %s %s/%s failed: %v\n",
				w.id, o.kind, w.d.w.containerOf(o.key), keyName(o.key), err)
		}
	}
	if ph == phaseUntimed {
		return rtDur
	}
	s := sample{
		kind:     o.kind,
		degraded: ph == phaseDegraded,
		ok:       err == nil,
		doneAt:   time.Since(w.windowStart).Seconds(),
		ms:       float64(lat) / 1e6,
	}
	if rt != nil {
		s.ttfbMs = float64(rt.headers-rt.rtStart) / 1e6
	}
	w.samples = append(w.samples, s)
	return rtDur
}

// put writes the next version of key and returns the round-trip time.
func (w *worker) put(ctx context.Context, key int, rt *reqTrace) (time.Duration, error) {
	st := w.state(key)
	version := st.version + 1
	h := header(key, version)
	crc := w.d.payloads.crcOf(h)
	body := io.MultiReader(bytes.NewReader(h[:]), bytes.NewReader(w.d.payloads.base[headerBytes:]))

	t0 := time.Now()
	err := w.api.put(ctx, w.d.w.containerOf(key), keyName(key), body, w.d.w.objectBytes)
	dur := time.Since(t0)
	if rt != nil {
		rt.rtEnd = w.d.tr.now()
	}
	if err != nil {
		return dur, err
	}
	*st = keyState{version: version, crc: crc, live: true}
	return dur, nil
}

// get reads key back and checks size and CRC-32C against what this
// client last wrote; the returned duration covers request start to the
// last body byte, the check itself is client self time.
func (w *worker) get(ctx context.Context, key int, rt *reqTrace) (time.Duration, error) {
	st := w.state(key)
	if !st.live {
		return 0, fmt.Errorf("generator asked for a key that was never written")
	}
	t0 := time.Now()
	rc, size, err := w.api.get(ctx, w.d.w.containerOf(key), keyName(key))
	if err != nil {
		return time.Since(t0), err
	}
	want := int64(len(w.buf))
	n, err := io.ReadFull(rc, w.buf)
	rc.Close()
	dur := time.Since(t0)
	if rt != nil {
		rt.rtEnd = w.d.tr.now()
	}
	if err != nil {
		return dur, fmt.Errorf("body: read %d of %d bytes: %w", n, want, err)
	}
	if size != want {
		return dur, fmt.Errorf("meta size %d, want %d", size, want)
	}
	if got := crc32.Checksum(w.buf, castagnoli); got != st.crc {
		return dur, fmt.Errorf("corrupt body: crc %08x, want %08x (version %d)", got, st.crc, st.version)
	}
	return dur, nil
}
