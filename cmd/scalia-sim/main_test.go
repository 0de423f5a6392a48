package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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

const runMainEnv = "SCALIA_SIM_RUN_MAIN"

// TestProvidersExperiment runs the cheapest experiment, the paper's
// Fig. 3 provider table, and finds its five rows.
func TestProvidersExperiment(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "providers")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("scalia-sim -experiment providers: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 7 || !strings.HasPrefix(lines[0], "Fig. 3") {
		t.Fatalf("want the Fig. 3 title, a header and five rows, got:\n%s", out)
	}
	for i, name := range []string{"S3(h)", "S3(l)", "RS", "Azu", "Ggl"} {
		if !strings.HasPrefix(lines[2+i], name+" ") {
			t.Errorf("row %d: %q, want %s", i, lines[2+i], name)
		}
	}
}
