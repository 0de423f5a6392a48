package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"scalia/internal/loadgen"
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

const runMainEnv = "SCALIA_LOADGEN_RUN_MAIN"

// TestSpawnedRun boots the in-process deployment (-spawn), runs half a
// second of the zipf workload against it with an error gate of 0, and
// reads the report: every op, seeding included, succeeded.
func TestSpawnedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(os.Args[0], "-spawn", "-workload", "zipf", "-duration", "500ms",
		"-rate", "100", "-workers", "2", "-max-error-rate", "0", "-out", out)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if log, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("scalia-loadgen -spawn: %v\n%s", err, log)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps == 0 || rep.TotalErrors != 0 || rep.SeedOps == 0 || rep.SeedErrors != 0 {
		t.Fatalf("%d ops with %d failed, %d seed ops with %d failed; want some, none failed",
			rep.TotalOps, rep.TotalErrors, rep.SeedOps, rep.SeedErrors)
	}
}
