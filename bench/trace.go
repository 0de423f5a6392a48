package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is what one foreground operation does.
type opKind uint8

const (
	opGet opKind = iota
	opPut
)

func (k opKind) String() string {
	if k == opPut {
		return "put"
	}
	return "get"
}

// reqTrace collects every span of one traced request, from the client's
// op down to the provider calls. Client-side fields are written by the
// client goroutine, gateway-side fields by the handler; provider spans
// arrive under tracer.mu. Everything is read only after the window.
type reqTrace struct {
	id    string
	kind  opKind
	bytes int64
	ok    bool

	// client layer
	opStart, opEnd int64 // whole op: payload stamp, round trip, CRC
	rtStart, rtEnd int64 // HTTP round trip: request out -> last body byte in
	headers        int64 // response headers received

	// gateway layer
	handle    interval
	status    int
	bodyRead  []interval // blocked in Request.Body.Read
	respWrite []interval // blocked in ResponseWriter.Write

	// cloud layer
	provider []provSpan
}

// ctlSpan is one timed control-plane call (small-maint).
type ctlSpan struct {
	name       string
	req        string
	start, end int64
}

// tracer keeps the spans of a traced run in memory until exit.
type tracer struct {
	epoch time.Time
	// on gates recording: the traced run has an untraced lead-in slice
	// whose rate is the baseline for trace.overhead_pct.
	on atomic.Bool

	mu         sync.Mutex
	reqs       map[string]*reqTrace
	order      []*reqTrace
	background []provSpan        // provider ops no request caused
	goroutines map[uint64]string // handler goroutine -> request id
	control    []ctlSpan

	// gateway counters over the traced window (all requests).
	requests, status4xx, status5xx atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:      time.Now(),
		reqs:       make(map[string]*reqTrace),
		goroutines: make(map[uint64]string),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) register(rt *reqTrace) {
	t.mu.Lock()
	t.reqs[rt.id] = rt
	t.order = append(t.order, rt)
	t.mu.Unlock()
}

func (t *tracer) lookup(id string) *reqTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqs[id]
}

func (t *tracer) addProvider(sp provSpan) {
	t.mu.Lock()
	if rt := t.reqs[sp.req]; rt != nil {
		rt.provider = append(rt.provider, sp)
	} else {
		t.background = append(t.background, sp)
	}
	t.mu.Unlock()
}

func (t *tracer) addControl(name, req string, start, end int64) {
	t.mu.Lock()
	t.control = append(t.control, ctlSpan{name, req, start, end})
	t.mu.Unlock()
}

// goid parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). Used only in traced runs, to attribute
// provider calls made on context.Background() to their request.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

func (t *tracer) reqOfGoroutine() string {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.goroutines[id]
}

// --- client side ---

type traceCtxKey struct{}

// tracingTransport notes, for ops that carry a reqTrace in their
// context, the X-Request-ID the typed client stamped plus when the
// request left and when the response headers arrived.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, _ := req.Context().Value(traceCtxKey{}).(*reqTrace)
	if rt == nil {
		return tt.base.RoundTrip(req)
	}
	rt.id = req.Header.Get("X-Request-ID")
	tt.tr.register(rt)
	rt.rtStart = tt.tr.now()
	resp, err := tt.base.RoundTrip(req)
	rt.headers = tt.tr.now()
	return resp, err
}

// --- gateway side ---

// tracingHandler wraps the gateway: handle span, time blocked reading
// the request body and writing the response, and status counters.
type tracingHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	rt := h.tr.lookup(r.Header.Get("X-Request-ID"))
	if rt == nil {
		sw := &statusRecorder{ResponseWriter: w}
		h.inner.ServeHTTP(sw, r)
		h.count(sw.status)
		return
	}
	g := goid()
	h.tr.mu.Lock()
	h.tr.goroutines[g] = rt.id
	h.tr.mu.Unlock()

	body := &timedBody{ReadCloser: r.Body, tr: h.tr}
	r.Body = body
	tw := &timedWriter{statusRecorder: statusRecorder{ResponseWriter: w}, tr: h.tr}
	start := h.tr.now()
	h.inner.ServeHTTP(tw, r)
	rt.handle = interval{start, h.tr.now()}
	rt.status = tw.status
	rt.bodyRead = body.iv.finish()
	rt.respWrite = tw.iv.finish()

	h.tr.mu.Lock()
	delete(h.tr.goroutines, g)
	h.tr.mu.Unlock()
	h.count(tw.status)
}

func (h *tracingHandler) count(status int) {
	h.tr.requests.Add(1)
	switch {
	case status >= 500:
		h.tr.status5xx.Add(1)
	case status >= 400:
		h.tr.status4xx.Add(1)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// mergeGapNs joins back-to-back calls into one interval: the loop
// overhead between two Reads of one io.ReadFull is not engine work.
const mergeGapNs = 2000

// callIntervals accumulates the time spent inside repeated blocking
// calls as merged intervals. One goroutine uses it at a time.
type callIntervals struct {
	done []interval
	cur  interval
}

func (c *callIntervals) add(start, end int64) {
	if c.cur.end != 0 && start-c.cur.end <= mergeGapNs {
		c.cur.end = end
		return
	}
	if c.cur.end != 0 {
		c.done = append(c.done, c.cur)
	}
	c.cur = interval{start, end}
}

func (c *callIntervals) finish() []interval {
	if c.cur.end != 0 {
		c.done = append(c.done, c.cur)
		c.cur = interval{}
	}
	return c.done
}

type timedBody struct {
	io.ReadCloser
	tr *tracer
	iv callIntervals
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := b.tr.now()
	n, err := b.ReadCloser.Read(p)
	b.iv.add(t0, b.tr.now())
	return n, err
}

type timedWriter struct {
	statusRecorder
	tr *tracer
	iv callIntervals
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := w.tr.now()
	n, err := w.statusRecorder.Write(p)
	w.iv.add(t0, w.tr.now())
	return n, err
}

// --- span file ---

// spanRecord is one NDJSON line of the span file. Spans that aggregate
// many short calls (body reads, response writes) give the covered
// window as start/end and the time actually blocked as busy_ns.
type spanRecord struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Req      string `json:"req"`
	Parent   string `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	BusyNs   int64  `json:"busy_ns,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Provider string `json:"provider,omitempty"`
}

func sumLen(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.len()
	}
	return n
}

// writeSpans writes every recorded span as NDJSON and returns how many.
func (t *tracer) writeSpans(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	n := 0
	emit := func(r spanRecord) {
		if r.EndNs == 0 && r.StartNs == 0 {
			return
		}
		enc.Encode(r) //nolint:errcheck // the Flush below reports write errors
		n++
	}
	agg := func(name, req string, ivs []interval) {
		if len(ivs) == 0 {
			return
		}
		emit(spanRecord{Name: name, Layer: "gateway", Req: req, Parent: "gateway.handle",
			StartNs: ivs[0].start, EndNs: ivs[len(ivs)-1].end, BusyNs: sumLen(ivs)})
	}
	prov := func(sp provSpan, parent string) {
		emit(spanRecord{Name: "cloud." + sp.op, Layer: "cloud", Req: sp.req, Parent: parent,
			StartNs: sp.start, EndNs: sp.end, BusyNs: sp.storeNs, Bytes: sp.bytes, Provider: sp.provider})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rt := range t.order {
		op := "client." + rt.kind.String()
		emit(spanRecord{Name: op, Layer: "client", Req: rt.id, StartNs: rt.opStart, EndNs: rt.opEnd, Bytes: rt.bytes})
		emit(spanRecord{Name: "transport.roundtrip", Layer: "transport", Req: rt.id, Parent: op, StartNs: rt.rtStart, EndNs: rt.rtEnd})
		emit(spanRecord{Name: "gateway.handle", Layer: "gateway", Req: rt.id, Parent: "transport.roundtrip", StartNs: rt.handle.start, EndNs: rt.handle.end})
		agg("gateway.body_read", rt.id, rt.bodyRead)
		agg("gateway.resp_write", rt.id, rt.respWrite)
		for _, sp := range rt.provider {
			prov(sp, "gateway.handle")
		}
	}
	for _, c := range t.control {
		emit(spanRecord{Name: c.name, Layer: "control", Req: c.req, StartNs: c.start, EndNs: c.end})
	}
	for _, sp := range t.background {
		prov(sp, "")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// withReqTrace attaches rt to ctx for tracingTransport.
func withReqTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, rt)
}
