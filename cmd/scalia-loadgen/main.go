// Command scalia-loadgen drives a live Scalia deployment with a
// registered workload scenario (or an imported NDJSON trace) over the
// real HTTP wire protocol, optionally executing a replayable chaos
// schedule (provider outages, price changes, repair/optimize triggers)
// mid-run, and writes a BENCH_loadgen_*.json report: per-op latency
// quantiles, typed error rates, achieved vs offered rate, and the
// deployment's /v1/stats delta.
//
// Typical invocations:
//
//	scalia-loadgen -list
//	scalia-loadgen -addr http://127.0.0.1:8080 -workload zipf -duration 30s -rate 100
//	scalia-loadgen -spawn -workload churn -chaos ci/chaos-outage.json -duration 30s
//	scalia-loadgen -workload zipf -seed 7 -trace-out run.ndjson   # replayable op trace
//
// The chaos schedule is a JSON array (or NDJSON stream) of timestamped
// events; see internal/loadgen and EXPERIMENTS.md for the format.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"scalia"
	"scalia/client"
	"scalia/internal/loadgen"
	"scalia/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "deployment base URL")
	spawn := flag.Bool("spawn", false,
		"boot an in-process deployment instead of targeting -addr")
	workloadName := flag.String("workload", "zipf", "registered scenario name (see -list)")
	tracePath := flag.String("trace", "", "NDJSON workload trace to replay instead of -workload")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	chaosPath := flag.String("chaos", "", "chaos schedule file (JSON array or NDJSON)")
	workers := flag.Int("workers", loadgen.DefaultWorkers, "executor pool size")
	duration := flag.Duration("duration", 0,
		"run length (0 = exactly one pass over the compiled ops)")
	rate := flag.Float64("rate", loadgen.DefaultRate, "offered op rate per second")
	seed := flag.Uint64("seed", 1, "op-shuffle seed (same seed = same op sequence)")
	maxOps := flag.Int("ops", workload.DefaultMaxOps, "cap on compiled ops per pass")
	maxObjectBytes := flag.Int64("max-object-bytes", loadgen.DefaultMaxObjectBytes,
		"clamp scenario object sizes (negative = unclamped)")
	out := flag.String("out", "", "report path (default BENCH_loadgen_<scenario>.json)")
	traceOut := flag.String("trace-out", "", "write the dispatched op sequence as NDJSON")
	maxErrorRate := flag.Float64("max-error-rate", -1,
		"exit non-zero when the paced error rate exceeds this fraction (negative = no gate)")
	container := flag.String("container", loadgen.DefaultContainer, "object container for the run")
	flag.Parse()

	if *list {
		names := workload.Names()
		sort.Strings(names)
		for _, n := range names {
			e, _ := workload.Describe(n)
			fmt.Printf("%-16s %s\n", n, e.Desc)
		}
		return
	}

	scenario, err := buildScenario(*workloadName, *tracePath)
	if err != nil {
		log.Fatal(err)
	}

	var chaos *loadgen.Schedule
	if *chaosPath != "" {
		if chaos, err = loadgen.LoadScheduleFile(*chaosPath); err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *addr
	if *spawn {
		// The deployment scalia-server runs by default — not the library's
		// zero Options, which (for one) have no stripe cache.
		deployment, err := scalia.New(scalia.ServerOptions())
		if err != nil {
			log.Fatal(err)
		}
		defer deployment.Close()
		ts := httptest.NewServer(deployment.NewGateway())
		defer ts.Close()
		base = ts.URL
		log.Printf("spawned in-process deployment at %s", base)
	}
	c := client.New(base)

	if err := waitReady(ctx, c); err != nil {
		log.Fatalf("deployment at %s not ready: %v", base, err)
	}

	var traceFile *os.File
	cfg := loadgen.Config{
		Client:         c,
		Scenario:       scenario,
		Container:      *container,
		Seed:           *seed,
		Workers:        *workers,
		Rate:           *rate,
		Duration:       *duration,
		MaxOps:         *maxOps,
		MaxObjectBytes: *maxObjectBytes,
		Chaos:          chaos,
	}
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			log.Fatal(err)
		}
		defer traceFile.Close()
		cfg.OpTrace = traceFile
	}

	log.Printf("loadgen: scenario=%s seed=%d workers=%d rate=%.1f/s duration=%s chaos-events=%d",
		scenario.Name(), *seed, *workers, *rate, duration, chaosEvents(chaos))
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(rep.Summary())

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_loadgen_%s.json", scenario.Name())
	}
	if err := rep.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	log.Printf("report written to %s", path)

	if *maxErrorRate >= 0 && rep.ErrorRate > *maxErrorRate {
		log.Fatalf("error rate %.4f exceeds gate %.4f (errors by code: %v)",
			rep.ErrorRate, *maxErrorRate, rep.ErrorsByCode)
	}
}

func buildScenario(name, tracePath string) (workload.Scenario, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.Import(f)
	}
	return workload.New(name)
}

func chaosEvents(s *loadgen.Schedule) int {
	if s == nil {
		return 0
	}
	return len(s.Events)
}

// waitReady polls the providers endpoint until the gateway answers, so
// the generator can be started alongside a still-booting server.
func waitReady(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		pingCtx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Providers(pingCtx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return err
		}
		time.Sleep(250 * time.Millisecond)
	}
}
