package loadgen_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scalia"
	"scalia/client"
	"scalia/internal/loadgen"
	"scalia/internal/workload"
)

var ctx = context.Background()

// newDeployment boots an in-process broker behind the real HTTP
// gateway, exactly the stack scalia-loadgen drives in production.
func newDeployment(t *testing.T, opts scalia.Options) (*scalia.Client, *client.Client) {
	t.Helper()
	deployment, err := scalia.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(deployment.Close)
	ts := httptest.NewServer(deployment.NewGateway())
	t.Cleanup(ts.Close)
	return deployment, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

func mustSchedule(t *testing.T, src string) *loadgen.Schedule {
	t.Helper()
	s, err := loadgen.ParseSchedule(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeterministicOpSequence: two runs against two fresh deployments
// with the same seed, scenario and chaos schedule dispatch a
// byte-identical op trace — the replayability contract behind every
// BENCH comparison.
// zipfPeriods and churnPeriods are stock scenarios cut to their first n
// periods.
func zipfPeriods(n int) workload.Scenario {
	z := workload.NewZipf(1)
	z.TotalPeriods = n
	return z
}

func churnPeriods(n int) workload.Scenario {
	c := workload.NewChurn(3)
	c.TotalPeriods = n
	return c
}

func TestDeterministicOpSequence(t *testing.T) {
	const chaosSrc = `[
		{"at": "10ms", "action": "provider-down", "provider": "S3(l)"},
		{"at": "40ms", "action": "provider-up", "provider": "S3(l)"},
		{"at": "60ms", "action": "optimize"}
	]`
	run := func() []byte {
		_, c := newDeployment(t, scalia.Options{})
		var trace bytes.Buffer
		rep, err := loadgen.Run(ctx, loadgen.Config{
			Client:   c,
			Scenario: zipfPeriods(2),
			Seed:     7,
			Workers:  4,
			Rate:     2000,
			MaxOps:   400,
			Chaos:    mustSchedule(t, chaosSrc),
			OpTrace:  &trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalOps == 0 {
			t.Fatal("no ops executed")
		}
		return trace.Bytes()
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("op traces differ between identically-seeded runs:\n--- first (%d bytes)\n%.500s\n--- second (%d bytes)\n%.500s",
			len(first), first, len(second), second)
	}

	// A different seed must reorder the trace — determinism is not
	// "the seed is ignored".
	_, c := newDeployment(t, scalia.Options{})
	var other bytes.Buffer
	if _, err := loadgen.Run(ctx, loadgen.Config{
		Client:   c,
		Scenario: zipfPeriods(2),
		Seed:     8,
		Workers:  4,
		Rate:     2000,
		MaxOps:   400,
		OpTrace:  &other,
	}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, other.Bytes()) {
		t.Fatal("different seeds produced identical op traces")
	}
}

// TestMixedScenarioUnderChaos runs a churn workload (puts, gets AND
// deletes) with repair and outage chaos mid-run — under -race in CI
// this is the generator's concurrency soak.
func TestMixedScenarioUnderChaos(t *testing.T) {
	_, c := newDeployment(t, scalia.Options{})
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Client:   c,
		Scenario: churnPeriods(24),
		Seed:     11,
		Workers:  4,
		Rate:     1500,
		MaxOps:   300,
		Chaos: mustSchedule(t, `
			{"at": "5ms", "action": "provider-down", "provider": "S3(h)"}
			{"at": "30ms", "action": "repair", "policy": "active"}
			{"at": "50ms", "action": "provider-up", "provider": "S3(h)"}
		`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOps == 0 {
		t.Fatal("no ops executed")
	}
	for _, kind := range []string{"put", "get", "delete"} {
		if rep.Ops[kind].Count == 0 {
			t.Fatalf("mixed scenario executed no %s ops: %+v", kind, rep.Ops)
		}
	}
	if rep.SeedErrors != 0 {
		t.Fatalf("seed phase (pre-chaos) had %d errors", rep.SeedErrors)
	}
	// Outage chaos may fail individual ops; wholesale failure means the
	// generator itself is broken.
	if rep.ErrorRate > 0.5 {
		t.Fatalf("error rate %.2f under mild chaos: %+v", rep.ErrorRate, rep.ErrorsByCode)
	}
	if len(rep.Chaos) != 3 {
		t.Fatalf("chaos events executed = %+v, want 3", rep.Chaos)
	}
	for _, ev := range rep.Chaos {
		if ev.Error != "" {
			t.Fatalf("chaos event %s failed: %s", ev.Action, ev.Error)
		}
	}
}

// TestChaosProviderFlipsDoNotLeakReadBudget reproduces the streaming
// regression with the loadgen harness: providers flipping availability
// under open multi-stripe GETs with a bounded prefetch budget must
// return every buffered stripe to the pool. A leaked slot would starve
// all later streaming reads.
func TestChaosProviderFlipsDoNotLeakReadBudget(t *testing.T) {
	z := workload.NewZipf(1)
	z.Objects = 4
	z.SizeBytes = 512 << 10 // 8 stripes per object: real streaming
	z.TotalPeriods = 2

	deployment, c := newDeployment(t, scalia.Options{
		StripeBytes:     64 << 10,
		MaxBufferBytes:  256 << 10, // 4 concurrent stripe buffers
		PrefetchStripes: 2,
		CacheBytes:      0, // every stripe takes the fetch path
	})
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Client:         c,
		Scenario:       z,
		Seed:           5,
		Workers:        6,
		Rate:           3000,
		MaxOps:         200,
		MaxObjectBytes: -1, // keep the 512 KiB objects unclamped
		Chaos: mustSchedule(t, `
			{"at": "2ms",  "action": "provider-down", "provider": "S3(h)"}
			{"at": "10ms", "action": "provider-up",   "provider": "S3(h)"}
			{"at": "18ms", "action": "provider-down", "provider": "S3(h)"}
			{"at": "26ms", "action": "provider-up",   "provider": "S3(h)"}
			{"at": "34ms", "action": "provider-down", "provider": "Azu"}
			{"at": "42ms", "action": "provider-up",   "provider": "Azu"}
		`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops["get"].Count == 0 {
		t.Fatal("no streaming gets executed")
	}

	// All streams have drained or been torn down; the budget gauge must
	// settle back to zero. Brief poll: prefetcher teardown is async.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := deployment.Broker().ReadStats()
		if rs.BufferedStripes == 0 {
			if rs.BufferedStripesPeak == 0 {
				t.Fatal("budget never engaged: the regression scenario did not stream")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked read-budget slots: %d stripe buffers still held after chaos run (peak %d)",
				rs.BufferedStripes, rs.BufferedStripesPeak)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if rep.StatsDelta == nil {
		t.Fatal("report missing stats delta")
	}
	if rep.StatsDelta.StripesFetched == 0 {
		t.Fatalf("stats delta recorded no fetched stripes: %+v", rep.StatsDelta)
	}
}
