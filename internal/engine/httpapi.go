package engine

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"scalia/internal/obs"
)

// Gateway is the versioned HTTP surface of a whole Scalia deployment —
// the paper's "Amazon S3-like interface ... where the users can put,
// get, list and delete their data" (§III), grown into a v1 wire
// protocol. It is the HTTP codec of the v1 contract (scalia.API): every
// handler decodes a request, calls the broker's method of the contract,
// and encodes the reply or the error — it adds no behaviour of its own.
// Two reads have no contract method yet and call an engine: GET and HEAD
// open one version and decide every answer on it (openObject), and
// listing an upload's parts echoes the upload (Engine.ListParts).
// Requests are routed round-robin across all engines of all datacenters
// (the counter every contract call shares), object bodies stream stripe
// by stripe in both directions, and the request context cancels
// in-flight chunk fan-out.
//
// This is the one route table of the protocol; the typed scalia/client
// package is its inverse.
//
// Objects (httpapi_objects.go):
//
//	PUT    /v1/objects/{container}/{key}  store (streaming body;
//	       Content-Type = MIME, X-Scalia-TTL-Hours = lifetime hint,
//	       If-Match / If-None-Match:* = conditional write,
//	       X-Checksum-CRC32C = the body's, checked before commit) 201
//	GET    /v1/objects/{container}/{key}  fetch (streaming; If-None-Match
//	       -> 304; Range: bytes=... -> 206, mapped onto whole stripes so
//	       only the overlapped stripes are fetched or served from cache;
//	       multi-range requests stream a multipart/byteranges body; If-Range
//	       gates the range on the current ETag)                     200
//	HEAD   /v1/objects/{container}/{key}  metadata only              200
//	       (every GET or HEAD answer — 304, 416, headers, each range
//	       and each part — is decided on the one version its open pinned)
//	DELETE /v1/objects/{container}/{key}  delete (If-Match = conditional)  204
//	GET    /v1/objects/{container}?prefix=&limit=&after=  one list page  200
//
// Multipart (S3-style, selected by query parameters on the object path):
//
//	POST   …/{key}?uploads                 open an upload session
//	       (X-Scalia-Size-Hint = expected total bytes for placement
//	       planning; Content-Type / TTL / preconditions as PUT)      201
//	PUT    …/{key}?partNumber=N&uploadId=ID  stage one part (streaming
//	       body; every part except the final one must be a whole multiple
//	       of the stripe size); the response ETag names the attempt  200
//	POST   …/{key}?uploadId=ID             complete: JSON body
//	       {"parts":[{"partNumber":1,"etag":"..."}, ...]}            201
//	GET    …/{key}?uploadId=ID             list staged parts         200
//	DELETE …/{key}?uploadId=ID             abort                     204
//
// Admin and jobs (httpapi_admin.go):
//
//	GET    /v1/providers        provider market with availability + usage  200
//	POST   /v1/providers        register a provider (JSON cloud.Spec)  201
//	DELETE /v1/providers/{name} deregister a provider                204
//	PUT    /v1/providers/{name}/availability  inject/clear an outage
//	       (JSON {"available": bool} — scripted chaos)               200
//	PUT    /v1/providers/{name}/pricing  replace the price sheet at
//	       runtime (JSON {"pricing": cloud.Pricing} — market event)  200
//	PUT    /v1/rules/{container} pin a placement rule (JSON core.Rule)  204
//	POST   /v1/optimize[?wait=true]  dispatch an optimization round: 202
//	       with the job resource and a Location header, or — wait=true —
//	       block and answer 200 with the report
//	POST   /v1/repair?policy=wait|active[&wait=true]  same, a repair pass
//	GET    /v1/jobs?prefix=&limit=&after=  one page of maintenance jobs  200
//	GET    /v1/jobs/{id}        one job: state, progress, final report  200
//	GET    /v1/stats            planner/optimizer/repair/usage/cost counters,
//	       stripe-cache, read-path, write-path and maintenance counters  200
//
// Observability (httpapi_obs.go; outside the contract):
//
//	GET    /metrics     Prometheus text exposition of the broker registry
//	GET    /v1/healthz  build info, uptime, per-provider alive + latency
//	GET    /debug/pprof/*  runtime profiles (only after EnablePprof)
//
// Every request runs through the gateway middleware: a request ID
// (client-provided X-Request-ID or generated) starts an obs.Trace that
// rides the request context through the broker, the response carries
// the ID back, the request latency/count/bytes land in the metric
// registry under the matched route pattern, and — when Logger is set —
// one structured access-log line records method, path, status, bytes,
// duration and the trace's stripe fan-out / cache-hit / fallback
// counts and span timings.
//
// Errors are typed JSON: {"error": {"code": "...", "message": "..."}};
// httpapi_errors.go holds the one table of sentinels, statuses and codes.
type Gateway struct {
	broker *Broker
	mux    *http.ServeMux
	routes records[routeKey, routeRecord]
	// MaxObjectBytes bounds accepted uploads (default 1 GiB).
	MaxObjectBytes int64
	// Logger, when non-nil, receives one structured access-log line per
	// request. Nil (the default) disables access logging — embedded
	// deployments and tests stay quiet.
	Logger *slog.Logger
}

// NewGateway wraps a broker deployment in the v1 REST interface.
func NewGateway(b *Broker) *Gateway {
	g := &Gateway{broker: b, MaxObjectBytes: 1 << 30, mux: http.NewServeMux()}
	g.objectRoutes()
	g.adminRoutes()
	g.obsRoutes()
	return g
}

// EnablePprof mounts the net/http/pprof profile handlers under
// /debug/pprof/. Call at most once, before serving; the endpoints
// expose goroutine dumps and heap contents, so production deployments
// keep them behind the -pprof flag.
func (g *Gateway) EnablePprof() {
	g.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	g.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	g.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	g.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	g.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler: the observability middleware
// around the route mux.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := strings.TrimSpace(r.Header.Get("X-Request-ID"))
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	tr := obs.NewTrace(reqID)
	r = r.WithContext(obs.WithTrace(r.Context(), tr))
	w.Header().Set("X-Request-ID", reqID)

	// Resolve the route pattern for the metric label before dispatch
	// (the mux does not expose it on the outer request afterwards). The
	// pattern keeps label cardinality bounded — raw paths would mint one
	// series per object key.
	_, pattern := g.mux.Handler(r)
	route := pattern
	if i := strings.IndexByte(route, ' '); i >= 0 {
		route = route[i+1:]
	}
	if route == "" {
		route = "unmatched"
	}

	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	g.mux.ServeHTTP(sw, r)
	dur := time.Since(start)

	code := sw.status
	if code == 0 {
		code = http.StatusOK
	}
	g.observe(r.Method, route, code, dur, sw.bytes)

	if g.Logger != nil {
		counts := tr.Counts()
		g.Logger.Info("request",
			"requestID", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", code,
			"bytes", sw.bytes,
			"durMs", float64(dur.Microseconds())/1000,
			"stripesCached", counts["stripes_cached"],
			"stripesFetched", counts["stripes_fetched"],
			"fallbacks", counts["fallbacks"],
			"spans", tr.SpanSummary(),
		)
	}
}

// routeKey names the requests one routeRecord counts.
type routeKey struct{ method, route string }

// routeRecord holds one (method, route)'s series, resolved when the pair
// is first served, and each status code's request counter, resolved at
// the code's first use.
type routeRecord struct {
	dur   *obs.Histogram
	bytes *obs.Counter
	codes records[int, obs.Counter]
}

// observe records one served request in its route's series.
func (g *Gateway) observe(method, route string, code int, dur time.Duration, bytes int64) {
	m := g.broker.metrics
	key := routeKey{method, route}
	rec := g.routes.get(key)
	if rec == nil {
		rec = g.routes.add(key, &routeRecord{dur: m.httpDur.With(method, route), bytes: m.httpBytes.With(method, route)})
	}
	reqs := rec.codes.get(code)
	if reqs == nil {
		reqs = rec.codes.add(code, m.httpReqs.With(method, route, strconv.Itoa(code)))
	}
	rec.dur.Observe(dur.Seconds())
	reqs.Inc()
	rec.bytes.Add(bytes)
}

// statusWriter captures the status code and body bytes of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes so wrapping does not buffer
// stripe-by-stripe object bodies.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// --- the JSON codec ---

// operation is one JSON route's body: it decodes what it needs from r,
// calls the broker, and returns the success status with the reply to
// encode (nil = no body). Reply headers (Location, ETag) go on h.
type operation func(h http.Header, r *http.Request) (status int, reply any, err error)

// handle registers a JSON route. It is the only place a JSON route's
// outcome is turned into a response: the operation's error through the
// error table, its reply as a JSON document, no reply as a bare status.
func (g *Gateway) handle(pattern string, op operation) {
	g.mux.HandleFunc(pattern, serve(op))
}

func serve(op operation) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		status, reply, err := op(w.Header(), r)
		switch {
		case err != nil:
			failErr(w, err)
		case reply == nil:
			w.WriteHeader(status)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(reply) //nolint:errcheck
		}
	}
}

// decodeBody decodes a JSON request body into v; what names the document
// in the invalid_argument message.
func decodeBody(r *http.Request, v any, what string) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return fmt.Errorf("%w: malformed %s: %v", ErrInvalidArgument, what, err)
	}
	return nil
}

// listOptions decodes the prefix/after/limit query of the two paged
// listings. An absent limit leaves the page size to the broker; a present
// one must be a positive integer.
func listOptions(r *http.Request) (ListOptions, error) {
	q := r.URL.Query()
	opts := ListOptions{Prefix: q.Get("prefix"), After: q.Get("after")}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return opts, fmt.Errorf("%w: limit must be a positive integer", ErrInvalidArgument)
		}
		opts.Limit = v
	}
	return opts, nil
}
