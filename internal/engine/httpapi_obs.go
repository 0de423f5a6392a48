package engine

import (
	"net/http"
	"runtime"
	"time"

	"scalia/internal/obs"
)

// obsRoutes registers the observability routes.
func (g *Gateway) obsRoutes() {
	g.mux.HandleFunc("GET /metrics", g.metricsHandler)
	g.handle("GET /v1/healthz", g.healthz)
}

// metricsHandler serves the broker registry in Prometheus text format.
func (g *Gateway) metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	g.broker.Metrics().WritePrometheus(w) //nolint:errcheck
}

// ProviderHealth is one provider's row on GET /v1/healthz: liveness,
// footprint and observed backend-call latency (merged across get, put
// and delete; zero until the provider has served a call).
type ProviderHealth struct {
	Name      string  `json:"name"`
	Available bool    `json:"available"`
	UsedBytes int64   `json:"usedBytes"`
	Calls     uint64  `json:"calls"`
	Errors    int64   `json:"errors"`
	P50Ms     float64 `json:"p50Ms"`
	P99Ms     float64 `json:"p99Ms"`
}

// Health is the GET /v1/healthz document.
type Health struct {
	// Status is "ok", or "degraded" when any provider is unreachable.
	Status         string           `json:"status"`
	GoVersion      string           `json:"goVersion"`
	UptimeSeconds  float64          `json:"uptimeSeconds"`
	Engines        int              `json:"engines"`
	PendingDeletes int              `json:"pendingDeletes"`
	Providers      []ProviderHealth `json:"providers"`
}

func (g *Gateway) healthz(http.Header, *http.Request) (int, any, error) {
	b := g.broker
	h := Health{
		Status:         "ok",
		GoVersion:      runtime.Version(),
		UptimeSeconds:  time.Since(b.metrics.start).Seconds(),
		Engines:        len(b.Engines()),
		PendingDeletes: b.PendingDeletes(),
		Providers:      []ProviderHealth{},
	}
	for _, s := range b.registry.Snapshot() {
		ph := ProviderHealth{Name: s.Spec().Name, Available: s.Available(), UsedBytes: s.UsedBytes()}
		// The provider's get, put and delete series, merged; asking for
		// the error counts lists each in /metrics.
		rec := b.providers.record(ph.Name)
		var snap obs.HistogramSnapshot
		for op := range providerOpNames {
			ph.Errors += series(&rec.errs[op], b.metrics.providerErrs.With, ph.Name, providerOp(op)).Value()
			if d := rec.dur[op].Load(); d != nil {
				snap = snap.Merge(d.Snapshot())
			}
		}
		if snap.Count > 0 {
			ph.Calls = snap.Count
			// Quantile is NaN only on empty snapshots, which Count>0
			// excludes — and NaN must never reach encoding/json.
			ph.P50Ms = snap.Quantile(0.5) * 1000
			ph.P99Ms = snap.Quantile(0.99) * 1000
		}
		if !ph.Available {
			h.Status = "degraded"
		}
		h.Providers = append(h.Providers, ph)
	}
	// Degraded still answers 200: the deployment serves reads through
	// erasure redundancy while providers are down, and a load balancer
	// pulling the gateway for that would kill the one path that works.
	// Probes read the status field.
	return http.StatusOK, h, nil
}
