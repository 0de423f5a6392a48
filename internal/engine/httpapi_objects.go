package engine

import (
	"encoding/base64"
	"encoding/binary"
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
	w.Header().Set("Accept-Ranges", "bytes")
	// One open pins the object and reads its row once; every answer below
	// is decided on that version. A HEAD, a 304 and a 416 fetch no stripe,
	// and a body — whole, one range or several — is bytes of that version
	// alone, so If-Range cannot pass on one version and serve the next.
	or, err := g.engine().openObject(r.Context(), r.PathValue("container"), r.PathValue("key"), true)
	if err != nil {
		failErr(w, err)
		return
	}
	defer or.Close()
	meta := or.meta
	if inm := r.Header.Get("If-None-Match"); inm != "" && matchETags(inm, meta, true) {
		w.Header().Set("ETag", meta.ETag())
		w.WriteHeader(http.StatusNotModified)
		return
	}
	windows, elements, ranged := parseRanges(r.Header.Get("Range"), meta.Size)
	if ir := strings.TrimSpace(r.Header.Get("If-Range")); ir != "" && ir != meta.ETag() {
		// If-Range gates the range on validator currency (RFC 9110
		// §13.1.5): stale -> the full 200 body, so a resumed download
		// cannot splice bytes of two versions. A W/ tag or a date (no
		// Last-Modified is served) never matches.
		ranged = false
	}
	switch {
	case r.Method == http.MethodHead || !ranged:
		serveOne(w, r, or, byteRange{0, meta.Size}, true)
	case len(windows) == 0:
		w.Header().Set("Content-Range", "bytes */"+strconv.FormatInt(meta.Size, 10))
		failErr(w, fmt.Errorf("%w: no satisfiable range in a %d-byte object", ErrRangeNotSatisfiable, meta.Size))
	case elements == 1:
		serveOne(w, r, or, windows[0], false)
	default:
		serveMultiRange(w, r, or, windows)
	}
}

// byteRange is a non-empty window [offset, offset+length) of an object.
type byteRange struct{ offset, length int64 }

// parseRanges resolves a "bytes=" Range header against an object of size
// bytes: the satisfiable windows, in request order and clamped to the
// object (RFC 9110 §14.1.2), and how many elements the header named. One
// element is a plain 206, several a multipart/byteranges body (§14.6),
// even when only one of them is satisfiable; none satisfiable is a 416.
// Any syntactically invalid element invalidates the whole header (§14.2 —
// an invalid ranges-specifier is ignored), reported as !ok so the caller
// falls back to the full 200 body.
func parseRanges(header string, size int64) (windows []byteRange, elements int, ok bool) {
	spec, found := strings.CutPrefix(header, "bytes=")
	if !found {
		return nil, 0, false
	}
	for _, elem := range strings.Split(spec, ",") {
		first, last, found := strings.Cut(strings.TrimSpace(elem), "-")
		if !found {
			return nil, 0, false
		}
		first, last = strings.TrimSpace(first), strings.TrimSpace(last)
		var start, end int64
		if first == "" {
			// Suffix form: bytes=-N, the last N bytes (none for -0).
			n, err := strconv.ParseInt(last, 10, 64)
			if err != nil || n < 0 {
				return nil, 0, false
			}
			start, end = max(size-n, 0), size-1
		} else {
			var err error
			if start, err = strconv.ParseInt(first, 10, 64); err != nil || start < 0 {
				return nil, 0, false
			}
			end = size - 1 // open-ended: bytes=N-
			if last != "" {
				n, err := strconv.ParseInt(last, 10, 64)
				if err != nil || n < start {
					return nil, 0, false
				}
				end = min(n, end)
			}
		}
		if start <= end {
			windows = append(windows, byteRange{start, end - start + 1})
		}
		elements++
	}
	return windows, elements, true
}

// serveOne answers with one window of or's version as the whole body: the
// object (whole, a 200; for a HEAD only its headers) or a single range (a
// 206). The first stripe is in hand before the status line goes out, so
// an unreadable object is still an error reply; after it, a mid-stream
// failure can only truncate the body, which the client detects against
// Content-Length.
func serveOne(w http.ResponseWriter, r *http.Request, or *objectReader, win byteRange, whole bool) {
	head := r.Method == http.MethodHead
	if !head {
		if err := or.begin(r.Context(), win.offset, win.length, !whole); err != nil {
			failErr(w, err)
			return
		}
	}
	meta, h := or.meta, w.Header()
	writeMetaHeaders(h, meta, whole)
	if meta.MIME != "" {
		h.Set("Content-Type", meta.MIME)
	}
	h.Set("Content-Length", strconv.FormatInt(win.length, 10))
	if whole {
		w.WriteHeader(http.StatusOK)
	} else {
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", win.offset, win.offset+win.length-1, meta.Size))
		w.WriteHeader(http.StatusPartialContent)
	}
	if !head {
		io.Copy(w, or) //nolint:errcheck
	}
}

// serveMultiRange answers a multi-range GET with a multipart/byteranges
// body (RFC 9110 §14.6): one part per satisfiable requested range, in
// request order, each carrying its own Content-Range, each streamed from
// a window of or, so every part is bytes of one version. Unsatisfiable
// elements were dropped (§15.3.7 allows serving the satisfiable subset).
// Ranges are served as requested — overlapping or out-of-order elements
// are not coalesced. The body has no Content-Length; a mid-stream failure
// truncates the multipart payload, which the client detects by the
// missing closing boundary.
func serveMultiRange(w http.ResponseWriter, r *http.Request, or *objectReader, windows []byteRange) {
	meta := or.meta
	mw := multipart.NewWriter(w)
	writeMetaHeaders(w.Header(), meta, false)
	w.Header().Set("Content-Type", "multipart/byteranges; boundary="+mw.Boundary())
	w.WriteHeader(http.StatusPartialContent)
	for _, win := range windows {
		part, err := or.window(r.Context(), win.offset, win.length)
		if err != nil {
			// The 206 status line is already on the wire: all we can do
			// is stop, leaving the payload visibly truncated.
			return
		}
		ph := make(textproto.MIMEHeader)
		if meta.MIME != "" {
			ph.Set("Content-Type", meta.MIME)
		}
		ph.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", win.offset, win.offset+win.length-1, meta.Size))
		pw, err := mw.CreatePart(ph)
		if err == nil {
			_, err = io.Copy(pw, part)
		}
		part.Close()
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
