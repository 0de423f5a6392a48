package engine

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"scalia/internal/stats"
)

// readOutcome is everything a read leaves behind that a caller, an
// operator or the placement logic can see.
type readOutcome struct {
	bodies   [][]byte
	stats    ReadPathStats
	ops      int64        // provider operations billed
	outBytes int64        // provider bytes out billed
	events   stats.Sample // this period's, the warm-up's reads included
	retired  RetiredStats
}

// outcomeOf snapshots a broker at rest after its reads.
func outcomeOf(b *Broker, obj string, bodies [][]byte) readOutcome {
	out := readOutcome{bodies: bodies, stats: b.ReadStats(), retired: b.Retired()}
	out.stats.BufferedStripesPeak = 0 // how far the read-ahead got is timing
	u := b.Registry().TotalUsage()
	out.ops, out.outBytes = u.Ops, int64(math.Round(u.BandwidthOutGB*(1<<30)))
	if h := b.statsDB.History(obj); h != nil {
		e := h.Summary(b.Clock().Period(), 1) // one period: its sums, exactly
		out.events = stats.Sample{Reads: int64(e.Reads), Writes: int64(e.Writes), BytesOut: int64(e.BytesOut), BytesIn: int64(e.BytesIn), StorageBytes: int64(e.StorageBytes)}
	}
	return out
}

// putStriped stores the 6-stripe object the WriteTo tests read: plain, or
// assembled from a 2-stripe and a 4-stripe part.
func putStriped(t *testing.T, e *Engine, multipart bool) []byte {
	t.Helper()
	payload := testPayload(5*1024 + 300)
	if !multipart {
		if _, err := e.Put(ctx, "c", "k", payload, PutOptions{}); err != nil {
			t.Fatal(err)
		}
		return payload
	}
	up, err := e.CreateUpload(ctx, "c", "k", int64(len(payload)), PutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var done []CompletedPart
	for i, p := range [][]byte{payload[:2048], payload[2048:]} {
		info, err := e.UploadPart(ctx, up.UploadID, i+1, bytes.NewReader(p), int64(len(p)))
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, CompletedPart{PartNumber: i + 1, ETag: info.ETag})
	}
	if meta, err := e.CompleteUpload(ctx, up.UploadID, done); err != nil || !meta.Multipart() {
		t.Fatalf("CompleteUpload = %+v, %v", meta, err)
	}
	return payload
}

// TestWriteToMatchesRead: io.Copy takes WriteTo where a caller's loop takes
// Read; whichever drains a stream, the same bytes come out, the same
// stripes are served from the cache and from the providers, the same
// provider operations are billed, no budget slot or version pin is left,
// and the read is logged once with the bytes delivered — also when a
// provider is down, so that a fetched stripe is served with a data
// segment rebuilt from parity, or read from its data chunks as they lie
// with parity lost.
func TestWriteToMatchesRead(t *testing.T) {
	const size = 5*1024 + 300
	type window struct{ off, length int64 }
	requests := []struct {
		name    string
		windows []window // nil = the whole object through GetReader
	}{
		{"get", nil},
		{"range mid-stripe", []window{{1500, 2000}}},
		{"suffix range", []window{{size - 700, -1}}},
		{"multi-range", []window{{100, 50}, {3000, 1500}, {1024, 1024}, {size - 10, -1}}},
	}
	warmups := []struct {
		name string
		warm func(t *testing.T, e *Engine)
	}{
		{"all miss", func(*testing.T, *Engine) {}},
		{"all hit", func(t *testing.T, e *Engine) {
			if _, _, err := e.Get(ctx, "c", "k"); err != nil {
				t.Fatal(err)
			}
		}},
		{"mixed", func(t *testing.T, e *Engine) {
			rc, _, err := e.GetRangeReader(ctx, "c", "k", 1024, 2048) // stripes 1 and 2
			if err == nil {
				_, err = io.Copy(io.Discard, rc)
				rc.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	// down picks the chunk slot whose provider is unavailable (-1: none);
	// rebuilds says every fetched stripe then has a data chunk rebuilt.
	// A healthy cell's name carries no suffix.
	degraded := []struct {
		suffix   string
		down     func(meta ObjectMeta) int
		rebuilds bool
	}{
		{"", func(ObjectMeta) int { return -1 }, false},
		{"/data slot 0 down", func(ObjectMeta) int { return 0 }, true},
		{"/parity slot down", func(meta ObjectMeta) int { return len(meta.Chunks) - 1 }, false},
	}
	for _, multipart := range []bool{false, true} {
		for _, prefetch := range []int{-1, 2} {
			for _, req := range requests {
				for _, w := range warmups {
					for _, d := range degraded {
						name := fmt.Sprintf("multipart=%v/prefetch=%d/%s/%s%s", multipart, prefetch, req.name, w.name, d.suffix)
						t.Run(name, func(t *testing.T) {
							var payload []byte
							serve := func(drain func(rc io.ReadCloser) ([]byte, error)) readOutcome {
								b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20, PrefetchStripes: prefetch})
								e := b.Engine(0)
								payload = putStriped(t, e, multipart)
								meta, err := e.Head(ctx, "c", "k")
								if err != nil || len(meta.Chunks) <= meta.M {
									t.Fatalf("scenario expects a parity slot, got m=%d of %d (%v)", meta.M, len(meta.Chunks), err)
								}
								if slot := d.down(meta); slot >= 0 {
									blob(t, b, meta.Chunks[slot]).SetAvailable(false)
								}
								w.warm(t, e)
								var bodies [][]byte
								open := func() (io.ReadCloser, ObjectMeta, error) { return e.GetReader(ctx, "c", "k") }
								for i := 0; i < max(1, len(req.windows)); i++ {
									if req.windows != nil {
										win := req.windows[i]
										open = func() (io.ReadCloser, ObjectMeta, error) {
											return e.GetRangeReader(ctx, "c", "k", win.off, win.length)
										}
									}
									rc, _, err := open()
									if err != nil {
										t.Fatal(err)
									}
									body, err := drain(rc)
									rc.Close()
									if err != nil {
										t.Fatal(err)
									}
									bodies = append(bodies, body)
								}
								return outcomeOf(b, "c/k", bodies)
							}
							read := serve(func(rc io.ReadCloser) ([]byte, error) { return io.ReadAll(rc) })
							written := serve(func(rc io.ReadCloser) ([]byte, error) {
								var buf bytes.Buffer
								n, err := rc.(io.WriterTo).WriteTo(&buf)
								if n != int64(buf.Len()) {
									t.Errorf("WriteTo reports %d bytes, wrote %d", n, buf.Len())
								}
								return buf.Bytes(), err
							})
							if !reflect.DeepEqual(read, written) {
								t.Errorf("WriteTo and Read leave different outcomes:\nRead:    %+v\nWriteTo: %+v", read.summary(), written.summary())
							}
							var delivered int64
							for i, body := range written.bodies {
								want := payload
								if req.windows != nil {
									win := req.windows[i]
									want = payload[win.off:]
									if win.length >= 0 {
										want = want[:win.length]
									}
								}
								if !bytes.Equal(body, want) {
									t.Errorf("stream %d: %d bytes, want the %d of the window", i, len(body), len(want))
								}
								delivered += int64(len(want))
							}
							// A stream closed undrained logs a read of no bytes: what
							// is left is the warm-up's share of the period's sample.
							warm := serve(func(io.ReadCloser) ([]byte, error) { return nil, nil })
							if got := written.events.BytesOut - warm.events.BytesOut; got != delivered ||
								written.events.Reads != warm.events.Reads {
								t.Errorf("read events: %d bytes over %d reads, want %d over %d",
									got, written.events.Reads, delivered, warm.events.Reads)
							}
							if written.stats.BufferedStripes != 0 || written.retired != (RetiredStats{}) || written.stats.CorruptChunks != 0 {
								t.Errorf("at rest: %+v, %+v", written.stats, written.retired)
							}
							var rebuilt int64
							if d.rebuilds {
								rebuilt = written.stats.StripesFetched
							}
							if written.stats.StripesReconstructed != rebuilt {
								t.Errorf("%d of %d fetched stripes rebuilt a data chunk, want %d",
									written.stats.StripesReconstructed, written.stats.StripesFetched, rebuilt)
							}
						})
					}
				}
			}
		}
	}
}

func (o readOutcome) summary() string {
	lens := make([]int, len(o.bodies))
	for i, b := range o.bodies {
		lens[i] = len(b)
	}
	return fmt.Sprintf("bodies %v, %+v, %d ops, %d bytes out, events %v, %+v", lens, o.stats, o.ops, o.outBytes, o.events, o.retired)
}

// stingyWriter accepts budget bytes in all, then fails every Write with
// err — or, when err is nil, returns short without saying why.
type stingyWriter struct {
	buf    bytes.Buffer
	budget int
	err    error
}

func (w *stingyWriter) Write(p []byte) (int, error) {
	if len(p) <= w.budget {
		w.budget -= len(p)
		return w.buf.Write(p)
	}
	n, _ := w.buf.Write(p[:w.budget])
	w.budget = 0
	return n, w.err
}

// TestWriteToStopsWhereTheWriterDoes: a writer that fails or falls short
// in the middle of a stripe ends WriteTo with its error (io.ErrShortWrite
// for a silent short write) and the exact count; the bytes it did not
// take are still in the stream, a Read picks up where the Write stopped;
// and a stream closed there gives back its slot and pin and logs the bytes
// that were delivered, not the stripe that was in hand.
func TestWriteToStopsWhereTheWriterDoes(t *testing.T) {
	errBroken := errors.New("broken pipe")
	const accept = 1024 + 300 // into the second stripe written
	for _, ranged := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			for _, werr := range []error{errBroken, nil} {
				for _, resume := range []bool{false, true} {
					name := fmt.Sprintf("ranged=%v/cached=%v/err=%v/resume=%v", ranged, cached, werr, resume)
					t.Run(name, func(t *testing.T) {
						b := newTestBroker(t, Config{StripeBytes: 1024, CacheBytes: 1 << 20, PrefetchStripes: -1})
						e := b.Engine(0)
						payload := putStriped(t, e, false)
						if cached {
							if _, _, err := e.Get(ctx, "c", "k"); err != nil {
								t.Fatal(err)
							}
						}
						before := outcomeOf(b, "c/k", nil)
						want, open := payload, func() (io.ReadCloser, ObjectMeta, error) { return e.GetReader(ctx, "c", "k") }
						if ranged {
							want, open = payload[700:700+3000], func() (io.ReadCloser, ObjectMeta, error) {
								return e.GetRangeReader(ctx, "c", "k", 700, 3000)
							}
						}
						rc, _, err := open()
						if err != nil {
							t.Fatal(err)
						}
						w := &stingyWriter{budget: accept, err: werr}
						n, err := io.Copy(w, rc)
						if wantErr := cmp.Or(werr, io.ErrShortWrite); n != accept || !errors.Is(err, wantErr) {
							t.Fatalf("Copy = %d, %v, want %d, %v", n, err, accept, wantErr)
						}
						delivered := int64(accept)
						if resume {
							rest, err := io.ReadAll(rc)
							if err != nil {
								t.Fatal(err)
							}
							w.buf.Write(rest)
							delivered = int64(len(want))
						} else {
							want = want[:accept]
						}
						rc.Close()
						if !bytes.Equal(w.buf.Bytes(), want) {
							t.Errorf("delivered %d bytes that are not the first %d of the stream", w.buf.Len(), len(want))
						}
						after := outcomeOf(b, "c/k", nil)
						if got := after.events.BytesOut - before.events.BytesOut; got != delivered || after.events.Reads != before.events.Reads+1 {
							t.Errorf("read events: %d bytes over %d reads, want %d over 1",
								got, after.events.Reads-before.events.Reads, delivered)
						}
						if after.stats.BufferedStripes != 0 || after.retired != (RetiredStats{}) {
							t.Errorf("at rest: %+v, %+v", after.stats, after.retired)
						}
					})
				}
			}
		}
	}
}

// lastByteWriter looks at the read budget when the Write that completes
// the body arrives — the earliest moment a client can know it has it all.
type lastByteWriter struct {
	b          *Broker
	left, held int64
}

func (w *lastByteWriter) Write(p []byte) (int, error) {
	if w.left -= int64(len(p)); w.left == 0 {
		w.held = w.b.ReadStats().BufferedStripes
	}
	return len(p), nil
}

// TestSlotIsBackBeforeTheLastByteGoesOut: WriteTo lends a fetched
// stripe's segments to the Writer, so the stripe's slot cannot go back
// before the Write returns — except that nobody can tell a stream has
// ended before its last byte, and that byte is sent from a buffer of its
// own. A client that checks the budget the moment it has the whole body
// (the loadgen and benchmark resting-state checks do) finds it settled.
func TestSlotIsBackBeforeTheLastByteGoesOut(t *testing.T) {
	b := newTestBroker(t, Config{StripeBytes: 1024, PrefetchStripes: -1})
	e := b.Engine(0)
	payload := putStriped(t, e, false)
	for name, open := range map[string]func() (io.ReadCloser, ObjectMeta, error){
		"get":   func() (io.ReadCloser, ObjectMeta, error) { return e.GetReader(ctx, "c", "k") },
		"range": func() (io.ReadCloser, ObjectMeta, error) { return e.GetRangeReader(ctx, "c", "k", 700, 3000) },
	} {
		rc, _, err := open()
		if err != nil {
			t.Fatal(err)
		}
		w := &lastByteWriter{b: b, left: int64(len(payload)), held: -1}
		if name == "range" {
			w.left = 3000
		}
		if _, err := io.Copy(w, rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		if w.held != 0 {
			t.Errorf("%s: %d budget slots held when the last byte went out (-1: it never did)", name, w.held)
		}
	}
}

// sizesWriter records the size of every Write.
type sizesWriter struct {
	buf   bytes.Buffer
	sizes []int
}

func (w *sizesWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}

// TestWriteToBoundsEachWrite: a segment — a cached stripe, or a data
// chunk's share of a fetched one — up to maxWrite goes out in one Write;
// a longer one in pieces of maxWrite, so no single Write holds a socket
// for as long as a multi-megabyte copy takes.
func TestWriteToBoundsEachWrite(t *testing.T) {
	const stripe = 6 * maxWrite
	for _, cached := range []bool{false, true} {
		cfg := Config{StripeBytes: stripe, PrefetchStripes: -1}
		if cached {
			cfg.CacheBytes = 8 << 20
		}
		b := newTestBroker(t, cfg)
		e := b.Engine(0)
		payload := testPayload(2*stripe + maxWrite/4)
		meta, err := e.Put(ctx, "c", "k", payload, PutOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if meta.M < 2 || stripe/meta.M <= maxWrite {
			t.Fatalf("m = %d: the fetched case needs data chunks of more than maxWrite, and more than one", meta.M)
		}
		if _, _, err := e.Get(ctx, "c", "k"); err != nil { // fills the cache, if there is one
			t.Fatal(err)
		}
		rc, _, err := e.GetReader(ctx, "c", "k")
		if err != nil {
			t.Fatal(err)
		}
		var w sizesWriter
		_, err = io.Copy(&w, rc)
		rc.Close()
		if err != nil || !bytes.Equal(w.buf.Bytes(), payload) {
			t.Fatalf("cached=%v: Copy: %v, %d of %d bytes", cached, err, w.buf.Len(), len(payload))
		}
		// A cached stripe is one segment, a fetched one its data chunks'
		// payload prefixes; each goes out in pieces of maxWrite, and a
		// fetched last stripe gives its last byte a Write of its own.
		var want []int
		for _, stripeLen := range []int{stripe, stripe, maxWrite / 4} {
			segs := []int{stripeLen}
			if !cached {
				c := (stripeLen + meta.M - 1) / meta.M
				segs = nil
				for i := 0; i*c < stripeLen; i++ {
					segs = append(segs, min(c, stripeLen-i*c))
				}
			}
			for _, seg := range segs {
				for ; seg > 0; seg -= maxWrite {
					want = append(want, min(seg, maxWrite))
				}
			}
		}
		if !cached {
			want[len(want)-1]--
			want = append(want, 1)
		}
		if !reflect.DeepEqual(w.sizes, want) {
			t.Errorf("cached=%v: Writes of %v bytes, want %v", cached, w.sizes, want)
		}
		if n := b.ReadStats().BufferedStripes; n != 0 {
			t.Errorf("cached=%v: %d budget slots held at rest", cached, n)
		}
	}
}
