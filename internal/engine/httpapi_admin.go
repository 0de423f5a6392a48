package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"scalia/internal/cloud"
	"scalia/internal/core"
)

// adminRoutes registers the admin, jobs and stats routes. Each is a
// decode of the request, one broker call and a status.
func (g *Gateway) adminRoutes() {
	b := g.broker
	g.handle("GET /v1/providers", func(http.Header, *http.Request) (int, any, error) {
		return http.StatusOK, b.Providers(), nil
	})
	g.handle("POST /v1/providers", func(_ http.Header, r *http.Request) (int, any, error) {
		var spec cloud.Spec
		if err := decodeBody(r, &spec, "provider spec"); err != nil {
			return 0, nil, err
		}
		return http.StatusCreated, spec, b.AddProvider(spec)
	})
	g.handle("DELETE /v1/providers/{name}", func(_ http.Header, r *http.Request) (int, any, error) {
		return http.StatusNoContent, nil, b.RemoveProvider(r.PathValue("name"))
	})
	g.handle("PUT /v1/providers/{name}/availability", providerMutation("available",
		func(name string, up bool) (ProviderMutation, error) { return b.SetProviderAvailable(name, up) }))
	g.handle("PUT /v1/providers/{name}/pricing", providerMutation("pricing",
		func(name string, p cloud.Pricing) (ProviderMutation, error) { return b.SetProviderPricing(name, p) }))
	g.handle("PUT /v1/rules/{container}", func(_ http.Header, r *http.Request) (int, any, error) {
		var rule core.Rule
		if err := decodeBody(r, &rule, "rule"); err != nil {
			return 0, nil, err
		}
		return http.StatusNoContent, nil, b.SetContainerRule(r.PathValue("container"), rule)
	})
	g.handle("POST /v1/optimize", func(h http.Header, r *http.Request) (int, any, error) {
		return maintenance(h, r, func() (any, error) { return b.Optimize(r.Context()) }, b.StartOptimize)
	})
	g.handle("POST /v1/repair", func(h http.Header, r *http.Request) (int, any, error) {
		policy, err := ParseRepairPolicy(r.URL.Query().Get("policy"))
		if err != nil {
			return 0, nil, err
		}
		return maintenance(h, r, func() (any, error) { return b.Repair(r.Context(), policy) },
			func() JobView { return b.StartRepair(policy) })
	})
	g.handle("GET /v1/jobs", func(_ http.Header, r *http.Request) (int, any, error) {
		opts, err := listOptions(r)
		return http.StatusOK, b.Jobs(opts), err
	})
	g.handle("GET /v1/jobs/{id}", func(_ http.Header, r *http.Request) (int, any, error) {
		job, err := b.Job(r.PathValue("id"))
		return http.StatusOK, job, err
	})
	g.handle("GET /v1/stats", func(http.Header, *http.Request) (int, any, error) {
		return http.StatusOK, b.DeploymentStats(), nil
	})
}

// providerMutation is the body of both provider-mutation routes: the
// request document is {field: value} with the value required, and the
// reply is the broker's ProviderMutation.
func providerMutation[T any](field string, apply func(name string, v T) (ProviderMutation, error)) operation {
	return func(_ http.Header, r *http.Request) (int, any, error) {
		var req map[string]json.RawMessage
		var v *T
		if err := decodeBody(r, &req, "body"); err != nil || json.Unmarshal(req[field], &v) != nil || v == nil {
			return 0, nil, fmt.Errorf("%w: body must be {%q: ...}", ErrInvalidArgument, field)
		}
		mut, err := apply(r.PathValue("name"), *v)
		return http.StatusOK, mut, err
	}
}

// maintenance is the dispatch shared by POST /v1/optimize and /v1/repair.
// Default: start the pass as a job and answer 202 Accepted with the job
// resource and a Location header pointing at /v1/jobs/{id}; poll there
// for progress and the final report. ?wait=true is the synchronous mode
// that holds the request open and answers 200 with the report.
func maintenance(h http.Header, r *http.Request, run func() (any, error), start func() JobView) (int, any, error) {
	if s := r.URL.Query().Get("wait"); s != "" {
		wait, err := strconv.ParseBool(s)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: wait must be a boolean", ErrInvalidArgument)
		}
		if wait {
			rep, err := run()
			return http.StatusOK, rep, err
		}
	}
	job := start()
	h.Set("Location", "/v1/jobs/"+job.ID)
	return http.StatusAccepted, job, nil
}
