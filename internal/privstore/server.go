// Package privstore implements Scalia's private storage resources
// (paper §III-E): a lightweight standalone web service exposing an
// authenticated S3-compatible REST interface over a local directory,
// plus the client engines use to address it through the same Store
// interface as public providers.
//
// Requests are authenticated by signing the request parameters with an
// HMAC of a private token registered with Scalia; a timestamp in the
// signed payload prevents replay attacks, exactly as the paper
// describes. Capacity never grows beyond the limit set in the
// resource's properties.
package privstore

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MaxClockSkew bounds the accepted request-timestamp drift.
const MaxClockSkew = 5 * time.Minute

// Signature headers, and the used-bytes header: the server's used bytes
// after the request, on every answer to a PUT, a DELETE and GET /stats.
const (
	HeaderTimestamp = "X-Scalia-Timestamp"
	HeaderSignature = "X-Scalia-Signature"
	HeaderUsedBytes = "X-Scalia-Used-Bytes"
)

// Sign computes the request signature: HMAC-SHA256 over
// "method|path|timestamp" with the private token.
func Sign(token []byte, method, path string, timestamp int64) string {
	mac := hmac.New(sha256.New, token)
	fmt.Fprintf(mac, "%s|%s|%d", method, path, timestamp)
	return hex.EncodeToString(mac.Sum(nil))
}

// Server is the private-resource web service. It stores each object as
// one file (hex-encoded key) under dir and enforces the capacity limit.
type Server struct {
	dir      string
	token    []byte
	capacity int64
	now      func() time.Time

	mu   sync.Mutex
	used int64
}

// NewServer creates a server over dir with the given private token and
// capacity limit in bytes (0 = unlimited). The directory is created if
// missing and existing content is inventoried.
func NewServer(dir string, token []byte, capacity int64) (*Server, error) {
	if len(token) == 0 {
		return nil, errors.New("privstore: empty private token")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("privstore: %w", err)
	}
	s := &Server{dir: dir, token: token, capacity: capacity, now: time.Now}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("privstore: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			// A put that died before its rename.
			os.Remove(filepath.Join(dir, e.Name())) //nolint:errcheck // retried at the next start
			continue
		}
		if info, err := e.Info(); err == nil && !e.IsDir() {
			s.used += info.Size()
		}
	}
	return s, nil
}

// UsedBytes returns the stored byte volume.
func (s *Server) UsedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// fileFor maps an object key to its backing file (hex encoding prevents
// path traversal).
func (s *Server) fileFor(key string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(key)))
}

func (s *Server) authenticate(r *http.Request) error {
	tsHeader := r.Header.Get(HeaderTimestamp)
	sig := r.Header.Get(HeaderSignature)
	if tsHeader == "" || sig == "" {
		return errors.New("missing signature headers")
	}
	ts, err := strconv.ParseInt(tsHeader, 10, 64)
	if err != nil {
		return errors.New("malformed timestamp")
	}
	drift := s.now().Sub(time.Unix(ts, 0))
	if drift < -MaxClockSkew || drift > MaxClockSkew {
		return errors.New("timestamp outside accepted window (replay protection)")
	}
	want := Sign(s.token, r.Method, r.URL.Path, ts)
	if !hmac.Equal([]byte(want), []byte(sig)) {
		return errors.New("bad signature")
	}
	return nil
}

// ServeHTTP implements http.Handler:
//
//	PUT    /objects/{key}  store
//	GET    /objects/{key}  fetch
//	DELETE /objects/{key}  delete
//	GET    /list?prefix=p  list keys
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := s.authenticate(r); err != nil {
		http.Error(w, err.Error(), http.StatusUnauthorized)
		return
	}
	switch {
	case r.URL.Path == "/list" && r.Method == http.MethodGet:
		s.list(w, r.URL.Query().Get("prefix"))
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		used := s.UsedBytes()
		w.Header().Set(HeaderUsedBytes, strconv.FormatInt(used, 10))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int64{"usedBytes": used}) //nolint:errcheck
	case strings.HasPrefix(r.URL.Path, "/objects/"):
		key := strings.TrimPrefix(r.URL.Path, "/objects/")
		if key == "" {
			http.Error(w, "key required", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodPut:
			s.put(usedWriter{w, s}, r, key)
		case http.MethodGet:
			s.get(w, key)
		case http.MethodDelete:
			s.delete(usedWriter{w, s}, key)
		default:
			http.Error(w, "unsupported method", http.StatusMethodNotAllowed)
		}
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// usedWriter stamps HeaderUsedBytes on the answer as it is written, so
// the value is the server's after the request, whatever the outcome.
type usedWriter struct {
	http.ResponseWriter
	s *Server
}

func (w usedWriter) WriteHeader(code int) {
	w.Header().Set(HeaderUsedBytes, strconv.FormatInt(w.s.UsedBytes(), 10))
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) put(w http.ResponseWriter, r *http.Request, key string) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	path := s.fileFor(key)
	var old int64
	if info, err := os.Stat(path); err == nil {
		old = info.Size()
	}
	s.mu.Lock()
	if s.capacity > 0 && s.used-old+int64(len(data)) > s.capacity {
		s.mu.Unlock()
		http.Error(w, "capacity exhausted", http.StatusInsufficientStorage)
		return
	}
	s.used += int64(len(data)) - old
	s.mu.Unlock()
	if err := writeAtomic(path, data); err != nil {
		s.mu.Lock()
		s.used -= int64(len(data)) - old
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// tmpSuffix marks a file a put has not renamed into place yet. It is
// not hex, so list never takes one for a key.
const tmpSuffix = ".tmp"

// writeAtomic replaces path with data through a temporary file in the
// same directory and a rename, so a GET racing an overwrite reads the old
// body or the new one, never a truncated file.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "put-*"+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) //nolint:errcheck // best effort; NewServer sweeps leftovers
	}
	return err
}

func (s *Server) get(w http.ResponseWriter, key string) {
	data, err := os.ReadFile(s.fileFor(key))
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck
}

func (s *Server) delete(w http.ResponseWriter, key string) {
	path := s.fileFor(key)
	info, err := os.Stat(path)
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	if err := os.Remove(path); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.used -= info.Size()
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) list(w http.ResponseWriter, prefix string) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	keys := []string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := hex.DecodeString(e.Name())
		if err != nil {
			continue
		}
		if key := string(raw); strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(keys) //nolint:errcheck
}
