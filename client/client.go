// Package client is the typed Go client for the Scalia v1 HTTP gateway
// (cmd/scalia-server, engine.NewGateway): the inverse of the gateway's
// codec. *Client implements scalia.API — the same contract the
// in-process scalia.Client facade implements — so embedded and remote
// callers are interchangeable, and embeds scalia.Helpers for the Put /
// Get / Delete / ListAll / WaitForJob conveniences. The route table is
// documented once, on engine.Gateway.
//
// Wire errors are mapped back onto the facade's sentinel errors through
// the gateway's own error table, so errors.Is(err,
// scalia.ErrObjectNotFound) works identically against a remote
// deployment. HTTP-only reads (GetRanges, GetIfNoneMatch) sit outside
// the contract.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"scalia"
	"scalia/internal/engine"
	"scalia/internal/obs"
)

// Client talks to one Scalia gateway. It is safe for concurrent use.
type Client struct {
	scalia.Helpers
	base string
	http *http.Client
}

var _ scalia.API = (*Client)(nil)

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, TLS, test
// servers).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New returns a client for the gateway at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimSuffix(baseURL, "/"),
		http: http.DefaultClient,
	}
	c.Helpers = scalia.Helpers{API: c}
	for _, o := range opts {
		o(c)
	}
	return c
}

// --- the request codec ---

// send is the one place a request is built and sent. A non-nil body
// streams as is with size as its declared Content-Length — nothing is
// buffered. A generated X-Request-ID is stamped unless header carries
// one, so client-side errors can be correlated with the gateway's access
// log (the gateway echoes the ID on the response).
func (c *Client) send(ctx context.Context, method, u string, header http.Header, body io.Reader, size int64) (*http.Response, error) {
	if body != nil && size == 0 {
		// A zero ContentLength with an arbitrary non-nil body would be
		// sent chunked (unknown length) and refused with 411; NoBody
		// keeps the declared empty length on the wire.
		body = http.NoBody
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.ContentLength = size
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if req.Header.Get("X-Request-ID") == "" {
		req.Header.Set("X-Request-ID", obs.NewRequestID())
	}
	return c.http.Do(req)
}

// call sends a request whose reply is a status and, with out non-nil, a
// JSON document: any status but want becomes the sentinel error its wire
// code stands for.
func (c *Client) call(ctx context.Context, method, u string, header http.Header, body io.Reader, size int64, want int, out any) error {
	resp, err := c.send(ctx, method, u, header, body, size)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return decodeErr(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: malformed response: %v", ErrRemote, err)
	}
	return nil
}

// callJSON is call with in marshalled as the request document.
func (c *Client) callJSON(ctx context.Context, method, u string, in any, want int, out any) error {
	buf, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("%w: %v", scalia.ErrInvalidArgument, err)
	}
	return c.call(ctx, method, u, http.Header{"Content-Type": {"application/json"}},
		bytes.NewReader(buf), int64(len(buf)), want, out)
}

// ErrRemote wraps gateway errors whose code has no sentinel mapping.
var ErrRemote = errors.New("scalia client: remote error")

// wireError is the typed JSON error envelope of the v1 protocol.
type wireError struct {
	Error engine.APIError `json:"error"`
}

// sentinelFor maps a wire error code back onto the facade's sentinel:
// a lookup in the gateway's error table, ErrRemote for codes outside it
// ("internal").
func sentinelFor(code string) error {
	if sentinel, ok := engine.SentinelFor(code); ok {
		return sentinel
	}
	return ErrRemote
}

// decodeErr turns a non-2xx response into a sentinel-wrapped error.
func decodeErr(resp *http.Response) error {
	var we wireError
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err := json.Unmarshal(raw, &we); err != nil || we.Error.Code == "" {
		return fmt.Errorf("%w: %s: %s", ErrRemote, resp.Status, bytes.TrimSpace(raw))
	}
	return fmt.Errorf("%w: %s", sentinelFor(we.Error.Code), we.Error.Message)
}

func (c *Client) objectURL(container, key string) string {
	u := c.base + "/v1/objects/" + url.PathEscape(container)
	if key != "" {
		// Keys may contain slashes; escape each segment so the path
		// round-trips.
		segs := strings.Split(key, "/")
		for i, s := range segs {
			segs[i] = url.PathEscape(s)
		}
		u += "/" + strings.Join(segs, "/")
	}
	return u
}

// uploadURL addresses an open multipart upload.
func (c *Client) uploadURL(up scalia.UploadInfo) string {
	return c.objectURL(up.Container, up.Key) + "?uploadId=" + url.QueryEscape(up.UploadID)
}

func (c *Client) providerURL(name, field string) string {
	return c.base + "/v1/providers/" + url.PathEscape(name) + field
}

// listQuery encodes a page request; zero values are left to the gateway.
func listQuery(opts scalia.ListOptions) string {
	q := url.Values{}
	if opts.Prefix != "" {
		q.Set("prefix", opts.Prefix)
	}
	if opts.After != "" {
		q.Set("after", opts.After)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// --- the contract, as requests (documented on scalia.API) ---

// PutReader streams r to the gateway as the request body, which stripes
// it to the providers without buffering the whole object.
func (c *Client) PutReader(ctx context.Context, container, key string, r io.Reader, size int64, opts ...scalia.PutOption) (meta scalia.ObjectMeta, err error) {
	header, err := engine.EncodePutOptions(scalia.PutOptionsOf(opts))
	if err != nil {
		return meta, err
	}
	err = c.call(ctx, http.MethodPut, c.objectURL(container, key), header, r, size, http.StatusCreated, &meta)
	return meta, err
}

func (c *Client) CreateUpload(ctx context.Context, container, key string, sizeHint int64, opts ...scalia.PutOption) (up scalia.UploadInfo, err error) {
	header, err := engine.EncodePutOptions(scalia.PutOptionsOf(opts))
	if err != nil {
		return up, err
	}
	if sizeHint > 0 {
		header.Set("X-Scalia-Size-Hint", strconv.FormatInt(sizeHint, 10))
	}
	err = c.call(ctx, http.MethodPost, c.objectURL(container, key)+"?uploads", header, nil, 0, http.StatusCreated, &up)
	return up, err
}

func (c *Client) UploadPart(ctx context.Context, up scalia.UploadInfo, partNumber int, r io.Reader, size int64) (part scalia.PartInfo, err error) {
	u := c.uploadURL(up) + "&partNumber=" + strconv.Itoa(partNumber)
	err = c.call(ctx, http.MethodPut, u, nil, r, size, http.StatusOK, &part)
	return part, err
}

func (c *Client) ListParts(ctx context.Context, up scalia.UploadInfo) ([]scalia.PartInfo, error) {
	var res engine.ListPartsResult
	err := c.call(ctx, http.MethodGet, c.uploadURL(up), nil, nil, 0, http.StatusOK, &res)
	return res.Parts, err
}

func (c *Client) CompleteUpload(ctx context.Context, up scalia.UploadInfo, parts []scalia.CompletedPart) (meta scalia.ObjectMeta, err error) {
	err = c.callJSON(ctx, http.MethodPost, c.uploadURL(up),
		map[string][]scalia.CompletedPart{"parts": parts}, http.StatusCreated, &meta)
	return meta, err
}

func (c *Client) AbortUpload(ctx context.Context, up scalia.UploadInfo) error {
	return c.call(ctx, http.MethodDelete, c.uploadURL(up), nil, nil, 0, http.StatusNoContent, nil)
}

// GetReader hands back the response body as the stream; the returned
// metadata is reconstructed from response headers (size, checksum,
// placement).
func (c *Client) GetReader(ctx context.Context, container, key string) (io.ReadCloser, scalia.ObjectMeta, error) {
	rc, meta, _, err := c.GetIfNoneMatch(ctx, container, key, "")
	return rc, meta, err
}

// GetRange sends a Range request. Should a server or intermediary ignore
// the Range header and answer 200, the requested window is carved out of
// the full body client-side — the caller always receives exactly the
// bytes asked for.
func (c *Client) GetRange(ctx context.Context, container, key string, offset, length int64) (io.ReadCloser, scalia.ObjectMeta, error) {
	// Reject what the wire form cannot express before building a header:
	// length 0 would serialize as the malformed "bytes=N-(N-1)", which
	// the gateway ignores, silently serving the whole object.
	if offset < 0 || length == 0 || length < -1 {
		return nil, scalia.ObjectMeta{}, fmt.Errorf("%w: range offset %d length %d",
			scalia.ErrInvalidArgument, offset, length)
	}
	rng := fmt.Sprintf("bytes=%d-", offset)
	if length > 0 {
		rng += strconv.FormatInt(offset+length-1, 10)
	}
	resp, err := c.send(ctx, http.MethodGet, c.objectURL(container, key), http.Header{"Range": {rng}}, nil, 0)
	if err != nil {
		return nil, scalia.ObjectMeta{}, err
	}
	switch resp.StatusCode {
	case http.StatusPartialContent:
		return resp.Body, metaFromHeaders(container, key, resp.Header), nil
	case http.StatusOK:
		// The gateway — or an intermediary that stripped the Range
		// header — served the whole body, which RFC 9110 permits.
		return &windowReadCloser{rc: resp.Body, skip: offset, remaining: length},
			metaFromHeaders(container, key, resp.Header), nil
	default:
		defer resp.Body.Close()
		return nil, scalia.ObjectMeta{}, decodeErr(resp)
	}
}

func (c *Client) Head(ctx context.Context, container, key string) (scalia.ObjectMeta, error) {
	resp, err := c.send(ctx, http.MethodHead, c.objectURL(container, key), nil, nil, 0)
	if err != nil {
		return scalia.ObjectMeta{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return metaFromHeaders(container, key, resp.Header), nil
	case http.StatusNotFound:
		// HEAD responses carry no body, hence no code; the status alone
		// names the sentinel.
		return scalia.ObjectMeta{}, fmt.Errorf("%w: %s/%s", scalia.ErrObjectNotFound, container, key)
	default:
		return scalia.ObjectMeta{}, fmt.Errorf("%w: %s", ErrRemote, resp.Status)
	}
}

func (c *Client) DeleteIf(ctx context.Context, container, key, ifMatch string) error {
	var header http.Header
	if ifMatch != "" {
		header = http.Header{"If-Match": {ifMatch}}
	}
	return c.call(ctx, http.MethodDelete, c.objectURL(container, key), header, nil, 0, http.StatusNoContent, nil)
}

func (c *Client) List(ctx context.Context, container string, opts scalia.ListOptions) (res scalia.ListResult, err error) {
	err = c.call(ctx, http.MethodGet, c.objectURL(container, "")+listQuery(opts), nil, nil, 0, http.StatusOK, &res)
	return res, err
}

func (c *Client) Providers(ctx context.Context) (out []scalia.ProviderStatus, err error) {
	err = c.call(ctx, http.MethodGet, c.base+"/v1/providers", nil, nil, 0, http.StatusOK, &out)
	return out, err
}

func (c *Client) AddProvider(ctx context.Context, spec scalia.Provider) error {
	return c.callJSON(ctx, http.MethodPost, c.base+"/v1/providers", spec, http.StatusCreated, nil)
}

func (c *Client) RemoveProvider(ctx context.Context, name string) error {
	return c.call(ctx, http.MethodDelete, c.providerURL(name, ""), nil, nil, 0, http.StatusNoContent, nil)
}

func (c *Client) SetProviderAvailable(ctx context.Context, name string, up bool) (mut scalia.ProviderMutation, err error) {
	err = c.callJSON(ctx, http.MethodPut, c.providerURL(name, "/availability"),
		map[string]bool{"available": up}, http.StatusOK, &mut)
	return mut, err
}

func (c *Client) SetProviderPricing(ctx context.Context, name string, p scalia.Pricing) (mut scalia.ProviderMutation, err error) {
	err = c.callJSON(ctx, http.MethodPut, c.providerURL(name, "/pricing"),
		map[string]scalia.Pricing{"pricing": p}, http.StatusOK, &mut)
	return mut, err
}

func (c *Client) SetContainerRule(ctx context.Context, container string, rule scalia.Rule) error {
	return c.callJSON(ctx, http.MethodPut, c.base+"/v1/rules/"+url.PathEscape(container), rule, http.StatusNoContent, nil)
}

// Optimize holds the request open for the whole round (?wait=true).
func (c *Client) Optimize(ctx context.Context) (rep scalia.OptimizeReport, err error) {
	err = c.call(ctx, http.MethodPost, c.base+"/v1/optimize?wait=true", nil, nil, 0, http.StatusOK, &rep)
	return rep, err
}

// Repair holds the request open for the whole pass (?wait=true).
func (c *Client) Repair(ctx context.Context, policy scalia.RepairPolicy) (rep scalia.RepairReport, err error) {
	err = c.call(ctx, http.MethodPost, c.base+"/v1/repair?wait=true&policy="+policy.String(), nil, nil, 0, http.StatusOK, &rep)
	return rep, err
}

func (c *Client) StartOptimize(ctx context.Context) (job scalia.Job, err error) {
	err = c.call(ctx, http.MethodPost, c.base+"/v1/optimize", nil, nil, 0, http.StatusAccepted, &job)
	return job, err
}

func (c *Client) StartRepair(ctx context.Context, policy scalia.RepairPolicy) (job scalia.Job, err error) {
	err = c.call(ctx, http.MethodPost, c.base+"/v1/repair?policy="+policy.String(), nil, nil, 0, http.StatusAccepted, &job)
	return job, err
}

func (c *Client) Job(ctx context.Context, id string) (job scalia.Job, err error) {
	err = c.call(ctx, http.MethodGet, c.base+"/v1/jobs/"+url.PathEscape(id), nil, nil, 0, http.StatusOK, &job)
	return job, err
}

func (c *Client) Jobs(ctx context.Context, opts scalia.ListOptions) (list scalia.JobList, err error) {
	err = c.call(ctx, http.MethodGet, c.base+"/v1/jobs"+listQuery(opts), nil, nil, 0, http.StatusOK, &list)
	return list, err
}

func (c *Client) Stats(ctx context.Context) (st scalia.Stats, err error) {
	err = c.call(ctx, http.MethodGet, c.base+"/v1/stats", nil, nil, 0, http.StatusOK, &st)
	return st, err
}

// --- HTTP-only reads, outside the contract ---

// GetIfNoneMatch is a conditional fetch: when the stored ETag equals
// etag the gateway answers 304 and notModified is true with a nil
// reader. An empty etag is a plain GET.
func (c *Client) GetIfNoneMatch(ctx context.Context, container, key, etag string) (rc io.ReadCloser, meta scalia.ObjectMeta, notModified bool, err error) {
	var header http.Header
	if etag != "" {
		header = http.Header{"If-None-Match": {etag}}
	}
	resp, err := c.send(ctx, http.MethodGet, c.objectURL(container, key), header, nil, 0)
	if err != nil {
		return nil, scalia.ObjectMeta{}, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp.Body, metaFromHeaders(container, key, resp.Header), false, nil
	case http.StatusNotModified:
		resp.Body.Close()
		return nil, metaFromHeaders(container, key, resp.Header), true, nil
	default:
		defer resp.Body.Close()
		return nil, scalia.ObjectMeta{}, false, decodeErr(resp)
	}
}

// metaFromHeaders rebuilds the wire-visible ObjectMeta subset from the
// gateway's response headers.
func metaFromHeaders(container, key string, h http.Header) scalia.ObjectMeta {
	meta := scalia.ObjectMeta{
		Container: container,
		Key:       key,
		MIME:      h.Get("Content-Type"),
		Checksum:  strings.Trim(h.Get("ETag"), `"`),
	}
	meta.Size, _ = strconv.ParseInt(h.Get("X-Scalia-Size"), 10, 64)
	meta.M, _ = strconv.Atoi(h.Get("X-Scalia-M"))
	meta.Stripes, _ = strconv.Atoi(h.Get("X-Scalia-Stripes"))
	if provs := h.Get("X-Scalia-Providers"); provs != "" {
		meta.Chunks = strings.Split(provs, ",")
	}
	return meta
}

// windowReadCloser recovers a byte range from a full-body stream:
// it discards the first skip bytes, then serves at most remaining
// bytes (remaining < 0 = to the end).
type windowReadCloser struct {
	rc        io.ReadCloser
	skip      int64
	remaining int64
}

func (w *windowReadCloser) Read(p []byte) (int, error) {
	if w.skip > 0 {
		if _, err := io.CopyN(io.Discard, w.rc, w.skip); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.EOF // the range starts past the served body
			}
			w.skip = 0
			w.remaining = 0
			return 0, err
		}
		w.skip = 0
	}
	if w.remaining == 0 {
		return 0, io.EOF
	}
	if w.remaining > 0 && int64(len(p)) > w.remaining {
		p = p[:w.remaining]
	}
	n, err := w.rc.Read(p)
	if w.remaining > 0 {
		w.remaining -= int64(n)
	}
	return n, err
}

func (w *windowReadCloser) Close() error { return w.rc.Close() }

// ByteRange names one byte window of a multi-range GET: [Offset,
// Offset+Length), with Length -1 standing for "to the object end".
type ByteRange struct {
	Offset int64
	Length int64
}

// RangePart is one returned window of GetRanges: the bytes served plus
// the offset the server actually resolved them at.
type RangePart struct {
	Offset int64
	Data   []byte
}

// GetRanges fetches several byte windows of one object in a single
// request (Range: bytes=a-b,c-d), decoding the gateway's
// multipart/byteranges 206 body (RFC 9110 §14.6). Parts return in the
// server's serving order — request order, minus windows the object is
// too small to satisfy (the gateway serves the satisfiable subset). A
// plain single-range 206 wraps into one part; a server or intermediary
// that ignores the Range header and ships the full 200 body has every
// window carved out client-side. Bodies buffer in memory: multi-range
// reads are for collections of small slices, not bulk transfer — use
// GetRange to stream one large window.
func (c *Client) GetRanges(ctx context.Context, container, key string, ranges []ByteRange) ([]RangePart, scalia.ObjectMeta, error) {
	if len(ranges) == 0 {
		return nil, scalia.ObjectMeta{}, fmt.Errorf("%w: empty range list", scalia.ErrInvalidArgument)
	}
	var hdr strings.Builder
	hdr.WriteString("bytes=")
	for i, r := range ranges {
		if r.Offset < 0 || r.Length == 0 || r.Length < -1 {
			return nil, scalia.ObjectMeta{}, fmt.Errorf("%w: range offset %d length %d",
				scalia.ErrInvalidArgument, r.Offset, r.Length)
		}
		if i > 0 {
			hdr.WriteByte(',')
		}
		if r.Length < 0 {
			fmt.Fprintf(&hdr, "%d-", r.Offset)
		} else {
			fmt.Fprintf(&hdr, "%d-%d", r.Offset, r.Offset+r.Length-1)
		}
	}
	resp, err := c.send(ctx, http.MethodGet, c.objectURL(container, key), http.Header{"Range": {hdr.String()}}, nil, 0)
	if err != nil {
		return nil, scalia.ObjectMeta{}, err
	}
	defer resp.Body.Close()
	meta := metaFromHeaders(container, key, resp.Header)
	switch resp.StatusCode {
	case http.StatusPartialContent:
		mediatype, params, merr := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		if merr != nil || mediatype != "multipart/byteranges" {
			// A single-range 206: one window, offset from Content-Range.
			offset, ok := contentRangeStart(resp.Header.Get("Content-Range"))
			if !ok {
				offset = ranges[0].Offset
			}
			data, rerr := engine.ReadSized(resp.Body, resp.ContentLength)
			if rerr != nil {
				return nil, meta, rerr
			}
			return []RangePart{{Offset: offset, Data: data}}, meta, nil
		}
		mr := multipart.NewReader(resp.Body, params["boundary"])
		var parts []RangePart
		for {
			p, perr := mr.NextPart()
			if errors.Is(perr, io.EOF) {
				return parts, meta, nil
			}
			if perr != nil {
				return nil, meta, fmt.Errorf("%w: malformed byteranges body: %v", ErrRemote, perr)
			}
			offset, ok := contentRangeStart(p.Header.Get("Content-Range"))
			if !ok {
				return nil, meta, fmt.Errorf("%w: part without Content-Range", ErrRemote)
			}
			data, rerr := io.ReadAll(p)
			if rerr != nil {
				return nil, meta, rerr
			}
			parts = append(parts, RangePart{Offset: offset, Data: data})
		}
	case http.StatusOK:
		data, rerr := engine.ReadSized(resp.Body, resp.ContentLength)
		if rerr != nil {
			return nil, meta, rerr
		}
		size := int64(len(data))
		parts := make([]RangePart, 0, len(ranges))
		for _, r := range ranges {
			if r.Offset >= size {
				continue
			}
			end := size
			if r.Length >= 0 && r.Offset+r.Length < size {
				end = r.Offset + r.Length
			}
			parts = append(parts, RangePart{Offset: r.Offset, Data: data[r.Offset:end]})
		}
		return parts, meta, nil
	default:
		return nil, scalia.ObjectMeta{}, decodeErr(resp)
	}
}

// contentRangeStart parses the first-byte position out of a
// "bytes a-b/size" Content-Range header.
func contentRangeStart(h string) (int64, bool) {
	h = strings.TrimPrefix(h, "bytes ")
	dash := strings.IndexByte(h, '-')
	if dash < 0 {
		return 0, false
	}
	start, err := strconv.ParseInt(h[:dash], 10, 64)
	if err != nil || start < 0 {
		return 0, false
	}
	return start, true
}
