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
	"time"

	"scalia/internal/cloud"
)

// Client addresses a private storage web service through the same Store
// interface as simulated public providers, signing every request with
// the resource's private token.
type Client struct {
	base  string
	token []byte
	http  *http.Client
	now   func() time.Time
}

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

func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
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
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, unavailable(ctx, err)
	}
	return resp, nil
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
	resp, err := c.do(ctx, http.MethodPut, "/objects/"+url.PathEscape(key), data)
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
	resp, err := c.do(ctx, http.MethodGet, "/objects/"+url.PathEscape(key), nil)
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
	resp, err := c.do(ctx, http.MethodDelete, "/objects/"+url.PathEscape(key), nil)
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
	resp, err := c.do(ctx, http.MethodGet, "/list?prefix="+url.QueryEscape(prefix), nil)
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
