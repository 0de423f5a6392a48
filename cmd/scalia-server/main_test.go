package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the command itself when a smoke test starts this binary
// with runMainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "SCALIA_SERVER_RUN_MAIN"

// TestServeAndShutDown boots scalia-server on a :0 listener, reads the
// address from its start line, answers /v1/healthz, a PUT and a GET of
// the same bytes, and shuts down cleanly on SIGTERM.
func TestServeAndShutDown(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-access-log=false")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once it has exited
	log := bufio.NewScanner(stderr)
	started := regexp.MustCompile(`msg="scalia-server starting" addr=(\S+)`)
	var base string
	for base == "" && log.Scan() {
		if m := started.FindStringSubmatch(log.Text()); m != nil {
			base = "http://" + m[1]
		}
	}
	if base == "" {
		t.Fatal("no start line naming the address")
	}

	call := func(method, path, body string, want int) string {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != want {
			t.Fatalf("%s %s: %d %q, %v; want %d", method, path, resp.StatusCode, got, err, want)
		}
		return string(got)
	}
	if got := call(http.MethodGet, "/v1/healthz", "", http.StatusOK); !strings.Contains(got, `"status":"ok"`) {
		t.Errorf("healthz: %s", got)
	}
	call(http.MethodPut, "/v1/objects/smoke/k", "scalia smoke", http.StatusCreated)
	if got := call(http.MethodGet, "/v1/objects/smoke/k", "", http.StatusOK); got != "scalia smoke" {
		t.Errorf("GET returned %q", got)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan string, 1)
	go func() {
		clean := false
		for log.Scan() {
			clean = clean || strings.Contains(log.Text(), "shut down cleanly")
		}
		if err := cmd.Wait(); err != nil || !clean {
			done <- fmt.Sprintf("exit: %v, clean shutdown logged: %v", err, clean)
		}
		close(done)
	}()
	select {
	case failure := <-done:
		if failure != "" {
			t.Error(failure)
		}
	case <-time.After(10 * time.Second):
		t.Error("still running 10 s after SIGTERM")
	}
}
