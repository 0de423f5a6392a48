package privstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"scalia/internal/cloud"
)

// Client addresses a private storage web service through the same Store
// interface as simulated public providers, signing every request with
// the resource's private token. It keeps the store's health and used
// bytes as its own calls find them (see do).
type Client struct {
	base  string
	token []byte
	http  *http.Client
	now   func() time.Time

	mu    sync.Mutex
	down  bool
	fails int   // consecutive failed calls
	used  int64 // the server's used bytes, as its last answer said
	// notify is the registry back-reference (Backend.SetChangeNotifier),
	// called outside mu on every flip of down.
	notify func()
}

// downAfter is the number of consecutive failed calls that marks the
// store down; one answer marks it up again.
const downAfter = 3

// ErrRemote wraps non-2xx responses. A response the cloud package has a
// sentinel for wraps that one too: 404 is cloud.ErrNotFound, 507
// cloud.ErrOverCapacity and any other 5xx cloud.ErrUnavailable.
var ErrRemote = errors.New("privstore: remote error")

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string, token []byte) *Client {
	return &Client{
		base:  baseURL,
		token: token,
		http:  &http.Client{Timeout: 30 * time.Second},
		now:   time.Now,
	}
}

// do sends one signed request through hc and records its outcome. A
// transport failure or a 5xx counts against the store's health unless
// the caller's own ctx ended it; any other answer resets the count.
func (c *Client) do(ctx context.Context, hc *http.Client, method, path string, body []byte) (*http.Response, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return nil, err
	}
	ts := c.now().Unix()
	req.Header.Set(HeaderTimestamp, fmt.Sprintf("%d", ts))
	req.Header.Set(HeaderSignature, Sign(c.token, method, req.URL.Path, ts))
	resp, err := hc.Do(req)
	switch {
	case err != nil && ctx.Err() != nil:
		// The caller gave up: that says nothing about the store.
	case err != nil:
		c.record(false, -1)
	default:
		used, perr := strconv.ParseInt(resp.Header.Get(HeaderUsedBytes), 10, 64)
		if perr != nil {
			used = -1
		}
		c.record(resp.StatusCode < 500 || resp.StatusCode == http.StatusInsufficientStorage, used)
	}
	if err != nil {
		return nil, unavailable(ctx, err)
	}
	return resp, nil
}

// record notes one call's outcome: ok is an answer that is not a server
// failure (a full store answering 507 is healthy), used the used bytes
// the answer carried (< 0 when none). It is the one writer of the
// store's health, and each flip of it is announced through notify.
func (c *Client) record(ok bool, used int64) {
	c.mu.Lock()
	if used >= 0 {
		c.used = used
	}
	was := c.down
	if ok {
		c.fails, c.down = 0, false
	} else if c.fails++; c.fails >= downAfter {
		c.down = true
	}
	flipped, notify := was != c.down, c.notify
	c.mu.Unlock()
	if flipped && notify != nil {
		notify()
	}
}

// unavailable marks a transport failure: a service that did not answer
// is, to the broker, a provider outage. A cancelled or expired context
// keeps its own identity.
func unavailable(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return err
	}
	return fmt.Errorf("%w: %w", cloud.ErrUnavailable, err)
}

// Put implements cloud.Store.
func (c *Client) Put(ctx context.Context, key string, data []byte) error {
	resp, err := c.do(ctx, c.http, http.MethodPut, "/objects/"+url.PathEscape(key), data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return remoteErr(resp)
	}
	return nil
}

// Get implements cloud.Store.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := c.do(ctx, c.http, http.MethodGet, "/objects/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteErr(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, unavailable(ctx, err)
	}
	return data, nil
}

// Delete implements cloud.Store.
func (c *Client) Delete(ctx context.Context, key string) error {
	resp, err := c.do(ctx, c.http, http.MethodDelete, "/objects/"+url.PathEscape(key), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return remoteErr(resp)
	}
	return nil
}

// List implements cloud.Store.
func (c *Client) List(ctx context.Context, prefix string) ([]string, error) {
	resp, err := c.do(ctx, c.http, http.MethodGet, "/list?prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteErr(resp)
	}
	var keys []string
	if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
		return nil, err
	}
	return keys, nil
}

func remoteErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err := fmt.Errorf("%w: %s: %s", ErrRemote, resp.Status, bytes.TrimSpace(body))
	switch code := resp.StatusCode; {
	case code == http.StatusNotFound:
		return fmt.Errorf("%w: %w", cloud.ErrNotFound, err)
	case code == http.StatusInsufficientStorage:
		return fmt.Errorf("%w: %w", cloud.ErrOverCapacity, err)
	case code >= 500:
		return fmt.Errorf("%w: %w", cloud.ErrUnavailable, err)
	}
	return err
}

var _ cloud.Store = (*Client)(nil)
