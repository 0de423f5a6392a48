package engine

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"

	"scalia/internal/cloud"
)

// objectRoutes registers the object and multipart routes. One path
// carries both: S3-style, a multipart operation is the object's method
// plus an uploadId / uploads / partNumber query parameter.
func (g *Gateway) objectRoutes() {
	const object = " /v1/objects/{container}/{key...}"
	g.handle("PUT"+object, g.putObject)
	g.mux.HandleFunc("GET"+object, g.getObject) // also HEAD; writes its streamed body itself
	g.handle("POST"+object, g.postObject)
	g.handle("DELETE"+object, g.deleteObject)
	g.handle("GET /v1/objects/{container}", g.listObjects)
}

// --- write options on the wire ---

// parsePutOptions decodes the write options shared by PUT and the
// multipart session open from their headers: MIME, conditional headers,
// the TTL hint and the body's CRC-32C. A value the client explicitly sent
// is never silently dropped: a non-"*" If-None-Match (RFC 9110 §13.1.2),
// an unparsable TTL or CRC-32C is an invalid_argument. Range checks belong
// to the engine (PutOptions.validate).
func parsePutOptions(h http.Header) (PutOptions, error) {
	opts := PutOptions{
		MIME:    h.Get("Content-Type"),
		IfMatch: h.Get("If-Match"),
	}
	switch inm := h.Get("If-None-Match"); inm {
	case "":
	case "*":
		// Create only if absent; enforced by the engine against the
		// stored version, not a separate Head probe.
		opts.IfAbsent = true
	default:
		return PutOptions{}, fmt.Errorf("%w: writes support only If-None-Match: *", ErrInvalidArgument)
	}
	if ttl := h.Get("X-Scalia-TTL-Hours"); ttl != "" {
		v, err := strconv.ParseFloat(ttl, 64)
		if err != nil {
			return PutOptions{}, fmt.Errorf("%w: X-Scalia-TTL-Hours must be a number of hours", ErrInvalidArgument)
		}
		opts.TTLHours = v
	}
	if crc := h.Get(crc32cHeader); crc != "" {
		raw, err := base64.StdEncoding.DecodeString(crc)
		if err != nil || len(raw) != 4 {
			return PutOptions{}, fmt.Errorf("%w: %s must be the base64 of a big-endian CRC-32C", ErrInvalidArgument, crc32cHeader)
		}
		v := binary.BigEndian.Uint32(raw)
		opts.CRC32C = &v
	}
	return opts, nil
}

// crc32cHeader carries a body's CRC-32C in S3's flexible-checksum form.
const crc32cHeader = "X-Checksum-CRC32C"

func formatCRC32C(crc uint32) string {
	return base64.StdEncoding.EncodeToString(binary.BigEndian.AppendUint32(nil, crc))
}

// EncodePutOptions is parsePutOptions' inverse, used by the typed client:
// the headers that carry opts. A per-object rule has no wire form and is
// refused.
func EncodePutOptions(opts PutOptions) (http.Header, error) {
	if opts.Rule != nil {
		return nil, fmt.Errorf("%w: a per-object rule cannot be sent over the wire; pin it to the container", ErrInvalidArgument)
	}
	h := http.Header{}
	if opts.MIME != "" {
		h.Set("Content-Type", opts.MIME)
	}
	if opts.IfMatch != "" {
		h.Set("If-Match", opts.IfMatch)
	}
	if opts.IfAbsent {
		h.Set("If-None-Match", "*")
	}
	if opts.TTLHours != 0 {
		h.Set("X-Scalia-TTL-Hours", strconv.FormatFloat(opts.TTLHours, 'g', -1, 64))
	}
	return h, nil
}

// bodySize validates the declared length of a streaming write.
func (g *Gateway) bodySize(r *http.Request) (int64, error) {
	switch size := r.ContentLength; {
	case size < 0:
		return 0, errLengthRequired
	case size > g.MaxObjectBytes:
		return 0, fmt.Errorf("%w: body exceeds %d bytes", cloud.ErrTooLarge, g.MaxObjectBytes)
	default:
		return size, nil
	}
}

// --- object routes ---

// putObject streams the request body into the engine stripe by stripe;
// only the reply is a document.
func (g *Gateway) putObject(h http.Header, r *http.Request) (int, any, error) {
	if q := r.URL.Query(); q.Get("uploadId") != "" || q.Get("partNumber") != "" {
		return g.uploadPart(h, r)
	}
	size, err := g.bodySize(r)
	if err != nil {
		return 0, nil, err
	}
	opts, err := parsePutOptions(r.Header)
	if err != nil {
		return 0, nil, err
	}
	meta, err := g.engine().PutReader(r.Context(), r.PathValue("container"), r.PathValue("key"), r.Body, size, opts)
	if err != nil {
		return 0, nil, err
	}
	writeMetaHeaders(h, meta, true)
	return http.StatusCreated, meta, nil
}

func (g *Gateway) getObject(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("uploadId") != "" {
		serve(g.listParts)(w, r)
		return
	}
	container, key := r.PathValue("container"), r.PathValue("key")
	e := g.engine()
	w.Header().Set("Accept-Ranges", "bytes")
	// HEAD and conditional GET resolve from metadata alone, so the
	// common revalidation case (ETag still current -> 304) never touches
	// a chunk. A stale ETag pays one extra in-memory metadata read when
	// GetReader re-resolves below — and serves whatever version is live
	// at that moment, which is the later of the two and self-consistent
	// with its own headers.
	if inm := r.Header.Get("If-None-Match"); inm != "" || r.Method == http.MethodHead {
		meta, err := e.Head(r.Context(), container, key)
		if err != nil {
			failErr(w, err)
			return
		}
		if inm != "" && matchETags(inm, meta, true) {
			w.Header().Set("ETag", meta.ETag())
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if r.Method == http.MethodHead {
			writeMetaHeaders(w.Header(), meta, true)
			if meta.MIME != "" {
				w.Header().Set("Content-Type", meta.MIME)
			}
			w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
			w.WriteHeader(http.StatusOK)
			return
		}
	}
	if specs, ok := parseRangeHeader(r.Header.Get("Range")); ok {
		serve := true
		if ir := strings.TrimSpace(r.Header.Get("If-Range")); ir != "" {
			// If-Range gates the range on validator currency (RFC 9110
			// §13.1.5): current ETag -> the 206 the client asked for,
			// stale -> the full 200 body so a resumed download cannot
			// splice bytes of two different versions. A W/ tag or a date
			// (no Last-Modified is served) never matches.
			head, err := e.Head(r.Context(), container, key)
			if err != nil {
				failErr(w, err)
				return
			}
			serve = ir == head.ETag()
		}
		if serve {
			if len(specs) == 1 {
				g.serveRange(w, r, e, container, key, specs[0])
			} else {
				g.serveMultiRange(w, r, e, container, key, specs)
			}
			return
		}
	}
	rc, meta, err := e.GetReader(r.Context(), container, key)
	if err != nil {
		failErr(w, err)
		return
	}
	defer rc.Close()
	writeMetaHeaders(w.Header(), meta, true)
	if meta.MIME != "" {
		w.Header().Set("Content-Type", meta.MIME)
	}
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	w.WriteHeader(http.StatusOK)
	// The body streams stripe by stripe; a mid-stream failure can only
	// truncate the response (the status is already on the wire), which
	// the client detects against Content-Length.
	io.Copy(w, rc) //nolint:errcheck
}

// rangeSpec is one parsed single-range header. Exactly one of the two
// forms is set: suffix < 0 means an absolute range [start, start+length)
// with length < 0 standing for "to the object end"; suffix >= 0 means
// "the last suffix bytes".
type rangeSpec struct {
	start, length int64
	suffix        int64
}

// parseRangeHeader parses a "bytes=" Range header into its full
// ranges-specifier list. One element yields a plain 206 (serveRange);
// several yield a multipart/byteranges body (serveMultiRange, RFC 9110
// §14.6). Any syntactically invalid element invalidates the whole
// header (§14.2 — an invalid ranges-specifier is ignored), reported as
// !ok so the caller falls back to the full 200 body.
func parseRangeHeader(h string) ([]rangeSpec, bool) {
	const prefix = "bytes="
	if !strings.HasPrefix(h, prefix) {
		return nil, false
	}
	parts := strings.Split(strings.TrimPrefix(h, prefix), ",")
	specs := make([]rangeSpec, 0, len(parts))
	for _, part := range parts {
		spec, ok := parseRangeSpec(strings.TrimSpace(part))
		if !ok {
			return nil, false
		}
		specs = append(specs, spec)
	}
	return specs, true
}

// parseRangeSpec parses one ranges-specifier element ("a-b", "a-",
// "-n").
func parseRangeSpec(val string) (rangeSpec, bool) {
	spec := rangeSpec{suffix: -1}
	if val == "" {
		return spec, false
	}
	dash := strings.IndexByte(val, '-')
	if dash < 0 {
		return spec, false
	}
	first, last := strings.TrimSpace(val[:dash]), strings.TrimSpace(val[dash+1:])
	if first == "" {
		// Suffix form: bytes=-N, the last N bytes.
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil || n < 0 {
			return spec, false
		}
		spec.suffix = n
		return spec, true
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 {
		return spec, false
	}
	spec.start = start
	spec.length = -1 // open-ended: bytes=N-
	if last != "" {
		end, err := strconv.ParseInt(last, 10, 64)
		if err != nil || end < start {
			return spec, false
		}
		spec.length = end - start + 1
	}
	return spec, true
}

// serveRange answers a single-range GET: the engine maps the byte range
// onto the stripes it overlaps, so only those are consulted in the
// stripe cache or fetched from the providers. GetRangeReader owns the
// clamp and the unsatisfiable check; the gateway only translates the
// suffix form (which needs the object size before the offset exists)
// and the wire headers.
func (g *Gateway) serveRange(w http.ResponseWriter, r *http.Request, e *Engine, container, key string, spec rangeSpec) {
	offset, length := spec.start, spec.length
	if spec.suffix >= 0 {
		// Head is a pure in-memory metadata read.
		head, err := e.Head(r.Context(), container, key)
		if err != nil {
			failErr(w, err)
			return
		}
		if spec.suffix == 0 {
			w.Header().Set("Content-Range", "bytes */"+strconv.FormatInt(head.Size, 10))
			failErr(w, fmt.Errorf("%w: zero-length suffix range", ErrRangeNotSatisfiable))
			return
		}
		offset = head.Size - spec.suffix
		if offset < 0 {
			offset = 0
		}
		length = -1
	}
	rc, meta, err := e.GetRangeReader(r.Context(), container, key, offset, length)
	if err != nil {
		if errors.Is(err, ErrRangeNotSatisfiable) {
			if head, herr := e.Head(r.Context(), container, key); herr == nil {
				w.Header().Set("Content-Range", "bytes */"+strconv.FormatInt(head.Size, 10))
			}
		}
		failErr(w, err)
		return
	}
	defer rc.Close()
	// Mirror the reader's clamp against the meta it actually resolved.
	served := length
	if rest := meta.Size - offset; served < 0 || served > rest {
		served = rest
	}
	writeMetaHeaders(w.Header(), meta, false)
	if meta.MIME != "" {
		w.Header().Set("Content-Type", meta.MIME)
	}
	w.Header().Set("Content-Range",
		fmt.Sprintf("bytes %d-%d/%d", offset, offset+served-1, meta.Size))
	w.Header().Set("Content-Length", strconv.FormatInt(served, 10))
	w.WriteHeader(http.StatusPartialContent)
	io.Copy(w, rc) //nolint:errcheck
}

// serveMultiRange answers a multi-range GET with a multipart/byteranges
// body (RFC 9110 §14.6): one part per satisfiable requested range, in
// request order, each carrying its own Content-Range. All ranges are
// resolved against a single metadata snapshot so every Content-Range
// names the same complete-length. Unsatisfiable elements are dropped
// (§15.3.7 allows serving the satisfiable subset); a request with no
// satisfiable range at all is a 416. Ranges are served as requested —
// overlapping or out-of-order elements are not coalesced. The body
// streams stripe by stripe per part, so there is no Content-Length; a
// mid-stream failure truncates the multipart payload, which the client
// detects by the missing closing boundary.
func (g *Gateway) serveMultiRange(w http.ResponseWriter, r *http.Request, e *Engine, container, key string, specs []rangeSpec) {
	head, err := e.Head(r.Context(), container, key)
	if err != nil {
		failErr(w, err)
		return
	}
	type window struct{ offset, length int64 }
	windows := make([]window, 0, len(specs))
	for _, spec := range specs {
		offset, length := spec.start, spec.length
		if spec.suffix >= 0 {
			if spec.suffix == 0 {
				continue
			}
			offset = head.Size - spec.suffix
			if offset < 0 {
				offset = 0
			}
			length = -1
		}
		if offset >= head.Size {
			continue
		}
		if rest := head.Size - offset; length < 0 || length > rest {
			length = rest
		}
		windows = append(windows, window{offset, length})
	}
	if len(windows) == 0 {
		w.Header().Set("Content-Range", "bytes */"+strconv.FormatInt(head.Size, 10))
		failErr(w, fmt.Errorf("%w: no satisfiable range", ErrRangeNotSatisfiable))
		return
	}

	mw := multipart.NewWriter(w)
	writeMetaHeaders(w.Header(), head, false)
	w.Header().Set("Content-Type", "multipart/byteranges; boundary="+mw.Boundary())
	w.WriteHeader(http.StatusPartialContent)
	for _, win := range windows {
		rc, _, err := e.GetRangeReader(r.Context(), container, key, win.offset, win.length)
		if err != nil {
			// The 206 status line is already on the wire: all we can do
			// is stop, leaving the payload visibly truncated.
			return
		}
		ph := make(textproto.MIMEHeader)
		if head.MIME != "" {
			ph.Set("Content-Type", head.MIME)
		}
		ph.Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/%d", win.offset, win.offset+win.length-1, head.Size))
		pw, err := mw.CreatePart(ph)
		if err != nil {
			rc.Close()
			return
		}
		_, err = io.Copy(pw, rc)
		rc.Close()
		if err != nil {
			return
		}
	}
	mw.Close() //nolint:errcheck
}

func (g *Gateway) deleteObject(_ http.Header, r *http.Request) (int, any, error) {
	if id := r.URL.Query().Get("uploadId"); id != "" {
		return http.StatusNoContent, nil, g.engine().AbortUpload(r.Context(), id)
	}
	return http.StatusNoContent, nil, g.engine().DeleteIf(r.Context(),
		r.PathValue("container"), r.PathValue("key"), r.Header.Get("If-Match"))
}

func (g *Gateway) listObjects(_ http.Header, r *http.Request) (int, any, error) {
	opts, err := listOptions(r)
	if err != nil {
		return 0, nil, err
	}
	res, err := g.engine().List(r.Context(), r.PathValue("container"), opts)
	return http.StatusOK, res, err
}

// --- multipart routes ---

// postObject dispatches the two POST forms of the object path:
// ?uploads opens a multipart session, ?uploadId=… completes one.
func (g *Gateway) postObject(h http.Header, r *http.Request) (int, any, error) {
	switch q := r.URL.Query(); {
	case q.Has("uploads"):
		return g.createUpload(h, r)
	case q.Get("uploadId") != "":
		return g.completeUpload(h, r)
	default:
		return 0, nil, fmt.Errorf("%w: POST on an object needs ?uploads or ?uploadId=", ErrInvalidArgument)
	}
}

func (g *Gateway) createUpload(_ http.Header, r *http.Request) (int, any, error) {
	opts, err := parsePutOptions(r.Header)
	if err != nil {
		return 0, nil, err
	}
	var sizeHint int64
	if h := r.Header.Get("X-Scalia-Size-Hint"); h != "" {
		if sizeHint, err = strconv.ParseInt(h, 10, 64); err != nil || sizeHint < 0 {
			return 0, nil, fmt.Errorf("%w: X-Scalia-Size-Hint must be a non-negative byte count", ErrInvalidArgument)
		}
	}
	info, err := g.engine().CreateUpload(r.Context(), r.PathValue("container"), r.PathValue("key"), sizeHint, opts)
	return http.StatusCreated, info, err
}

func (g *Gateway) uploadPart(h http.Header, r *http.Request) (int, any, error) {
	q := r.URL.Query()
	if q.Get("uploadId") == "" || q.Get("partNumber") == "" {
		return 0, nil, fmt.Errorf("%w: part uploads need both ?partNumber= and ?uploadId=", ErrInvalidArgument)
	}
	partNumber, err := strconv.Atoi(q.Get("partNumber"))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: partNumber must be an integer", ErrInvalidArgument)
	}
	size, err := g.bodySize(r)
	if err != nil {
		return 0, nil, err
	}
	part, err := g.engine().UploadPart(r.Context(), q.Get("uploadId"), partNumber, r.Body, size)
	if err != nil {
		return 0, nil, err
	}
	h.Set("ETag", `"`+part.ETag+`"`)
	return http.StatusOK, part, nil
}

// completeUploadRequest is the JSON body of POST …?uploadId=….
type completeUploadRequest struct {
	Parts []CompletedPart `json:"parts"`
}

func (g *Gateway) completeUpload(h http.Header, r *http.Request) (int, any, error) {
	var req completeUploadRequest
	if err := decodeBody(r, &req, "part list"); err != nil {
		return 0, nil, err
	}
	meta, err := g.engine().CompleteUpload(r.Context(), r.URL.Query().Get("uploadId"), req.Parts)
	if err != nil {
		return 0, nil, err
	}
	writeMetaHeaders(h, meta, true)
	return http.StatusCreated, meta, nil
}

// ListPartsResult is the GET …?uploadId=… response document.
type ListPartsResult struct {
	Upload UploadInfo `json:"upload"`
	Parts  []PartInfo `json:"parts"`
}

func (g *Gateway) listParts(_ http.Header, r *http.Request) (int, any, error) {
	info, parts, err := g.engine().ListParts(r.Context(), r.URL.Query().Get("uploadId"))
	return http.StatusOK, ListPartsResult{Upload: info, Parts: parts}, err
}

// writeMetaHeaders describes meta's version on a reply; one that stands
// for the whole object (whole) names its CRC-32C too.
func writeMetaHeaders(h http.Header, meta ObjectMeta, whole bool) {
	if whole {
		h.Set(crc32cHeader, formatCRC32C(meta.CRC32C()))
	}
	h.Set("ETag", meta.ETag())
	h.Set("X-Scalia-M", strconv.Itoa(meta.M))
	h.Set("X-Scalia-Providers", strings.Join(meta.Chunks, ","))
	h.Set("X-Scalia-Size", strconv.FormatInt(meta.Size, 10))
	h.Set("X-Scalia-Stripes", strconv.Itoa(meta.StripeCount()))
}
