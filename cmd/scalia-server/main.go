// Command scalia-server runs a Scalia broker deployment behind the
// versioned v1 HTTP gateway. Requests round-robin across all engines of
// all datacenters; object bodies stream stripe by stripe in both
// directions, and a client disconnect cancels the in-flight chunk
// fan-out.
//
// The route table is documented on engine.Gateway.
//
// The default deployment brokers across the five simulated providers of
// the paper's Fig. 3 and runs the periodic optimization procedure in
// the background (default every 5 minutes, as in §III-A3). The typed
// scalia/client package speaks this wire protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scalia"
	"scalia/internal/engine"
)

// Connection deadlines. A client that stalls before its request headers
// are in, or parks an idle keep-alive connection, must not hold it — or,
// through an open read, a pinned object version — forever. Body reads
// and response writes carry no deadline: an 8 MiB object streaming to a
// slow client is legitimate.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	// The flag defaults are scalia.ServerOptions — the same deployment
	// scalia-loadgen -spawn boots.
	opts := scalia.ServerOptions()
	addr := flag.String("addr", ":8080", "listen address")
	cacheMB := flag.Int64("cache-mb", opts.CacheBytes>>20, "per-datacenter cache size (MB)")
	optimizeEvery := flag.Duration("optimize-every", 5*time.Minute,
		"periodic optimization interval")
	periodHours := flag.Float64("period-hours", opts.PeriodHours, "statistics sampling period (hours)")
	stripeMB := flag.Int64("stripe-mb", opts.StripeBytes>>20, "streaming stripe size (MB)")
	enginesPerDC := flag.Int("engines-per-dc", opts.EnginesPerDC, "stateless engines per datacenter")
	multipartTTL := flag.Duration("multipart-ttl", 24*time.Hour,
		"evict multipart upload sessions idle this long and GC their staged chunks (0 = never)")
	reoptWorkers := flag.Int("reopt-workers", opts.ReoptWorkers,
		"above 0, drain the event-driven reoptimization queue in the background (0 = enqueue only)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	accessLog := flag.Bool("access-log", true, "log one structured line per gateway request")
	flag.Parse()

	opts.EnginesPerDC = *enginesPerDC
	opts.CacheBytes = *cacheMB << 20
	opts.PeriodHours = *periodHours
	opts.StripeBytes = *stripeMB << 20
	opts.ReoptWorkers = *reoptWorkers
	opts.Clock = engine.NewWallClock(*periodHours)
	client, err := scalia.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go every(ctx, *optimizeEvery, func() {
		rep, err := client.Optimize(ctx)
		if err != nil {
			log.Printf("optimize: %v", err)
			return
		}
		log.Printf("optimize: leader=%s scanned=%d trend-changed=%d migrated=%d planner-hits=%d",
			rep.Leader, rep.Scanned, rep.TrendChanged, rep.Migrated, rep.PlannerHits)
	})
	if *multipartTTL > 0 {
		// Sweeping at a quarter of the TTL bounds over-retention to 1.25x
		// the deadline without busy-scanning the table.
		go every(ctx, min(*multipartTTL/4, time.Minute), func() {
			if n := client.Broker().SweepExpiredUploads(*multipartTTL); n > 0 {
				log.Printf("multipart-gc: evicted %d abandoned upload sessions (ttl %s)", n, multipartTTL)
			}
		})
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	gw := client.NewGateway()
	if *accessLog {
		gw.Logger = logger
	}
	if *pprofOn {
		gw.EnablePprof()
	}

	// The listener is bound before the start is logged, so the line names
	// the address it serves on (a :0 listener's port included).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	logger.Info("scalia-server starting",
		"addr", ln.Addr().String(),
		"engines", len(client.Broker().Engines()),
		"enginesPerDC", *enginesPerDC,
		"stripeBytes", *stripeMB<<20,
		"cacheBytes", *cacheMB<<20,
		"optimizeEvery", optimizeEvery.String(),
		"multipartTTL", multipartTTL.String(),
		"periodHours", *periodHours,
		"pprof", *pprofOn,
		"providers", "Fig. 3 simulated set")

	srv := &http.Server{Handler: gw, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Fatal(err) // never ErrServerClosed here
	case <-ctx.Done():
	}

	// Drain in-flight requests and report how long the drain took: slow
	// drains surface stuck streams before a supervisor's SIGKILL does.
	drainStart := time.Now()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := srv.Shutdown(shutdownCtx)
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
	}
	if drainErr != nil {
		logger.Error("scalia-server shutdown: drain timed out",
			"drain", time.Since(drainStart).String(), "err", drainErr)
		return
	}
	logger.Info("scalia-server shut down cleanly",
		"drain", time.Since(drainStart).String())
}

// every runs fn each interval until ctx is done.
func every(ctx context.Context, interval time.Duration, fn func()) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			fn()
		}
	}
}
