package engine

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWireErrorTable checks the one error vocabulary in both directions:
// every sentinel is served as its own row's status and code (so the
// table's order is right), through a real response; every code decodes to
// a sentinel that is served as the same code (so a code the gateway can
// emit is never unknown to the client); and no gateway file outside the
// table names an error status, so nothing emits a code behind its back.
func TestWireErrorTable(t *testing.T) {
	for _, row := range wireErrors {
		rec := httptest.NewRecorder()
		failErr(rec, fmt.Errorf("while testing: %w", row.err))
		resp := rec.Result()
		if code := errCode(t, resp); resp.StatusCode != row.status || code != row.code {
			t.Errorf("%v served as %d %s, want %d %s", row.err, resp.StatusCode, code, row.status, row.code)
		}
		sentinel, ok := SentinelFor(row.code)
		if !ok {
			t.Fatalf("code %s has no sentinel", row.code)
		}
		if status, code := statusFromErr(sentinel); code != row.code || status != row.status {
			t.Errorf("code %s decodes to %v, which is served as %d %s", row.code, sentinel, status, code)
		}
	}
	if status, code := statusFromErr(errors.New("anything else")); status != http.StatusInternalServerError || code != "internal" {
		t.Errorf("unlisted error = %d %s, want 500 internal", status, code)
	}
	if _, ok := SentinelFor("internal"); ok {
		t.Error(`"internal" must not decode to a sentinel`)
	}

	success := map[string]bool{"OK": true, "Created": true, "Accepted": true, "NoContent": true,
		"PartialContent": true, "NotModified": true}
	files, _ := filepath.Glob("httpapi*.go")
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "httpapi_errors.go" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`http\.Status([A-Z]\w*)`).FindAllStringSubmatch(string(src), -1) {
			if !success[m[1]] {
				t.Errorf("%s names http.Status%s: error statuses belong to the table in httpapi_errors.go", f, m[1])
			}
		}
	}
}
