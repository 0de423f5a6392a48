package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func quickOpts(t *testing.T, traced bool) runOpts {
	return runOpts{
		seed: 1, window: 700 * time.Millisecond, warmup: 200 * time.Millisecond,
		traced: traced, setups: 1, outDir: t.TempDir(),
	}
}

// quickWorkload is the named workload with the zero-latency warm-up cut
// short: the harness is under test here, not the steady state.
func quickWorkload(name string) *workload {
	w := *workloadByName(name)
	if w.warmOps > 50 {
		w.warmOps = 50
	}
	return &w
}

// Every workload runs end to end: all ops verified, every end-to-end
// metric present, finite and non-zero.
func TestEveryWorkloadQuick(t *testing.T) {
	for _, w := range workloads {
		res, err := runWorkload(quickWorkload(w.name), quickOpts(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, def := range endToEndDefs {
			v, ok := res.Metrics[def.name]
			if !ok || v != v || v <= 0 {
				t.Errorf("%s: %s = %v (present=%v), want a positive number", w.name, def.name, v, ok)
			}
		}
		if len(res.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w.name, len(res.Metrics), len(endToEndDefs))
		}
	}
}

// A traced run emits every per-layer metric, the layers add up to the
// client-observed latency, and the span file is written.
func TestTracedRunQuick(t *testing.T) {
	for _, name := range []string{"zipf-cached", "small-maint"} {
		o := quickOpts(t, true)
		// The full warm-up: with a cold cache the p50 of zipf-cached GETs
		// falls between the hit and the miss path and has no breakdown.
		res, err := runWorkload(workloadByName(name), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run not correct: %v", name, res.Notes)
		}
		for _, def := range perLayerDefs {
			if v, ok := res.Metrics[def.name]; !ok || v != v {
				t.Errorf("%s: per-layer metric %s = %v (present=%v)", name, def.name, v, ok)
			}
		}
		if len(res.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", name, len(res.Metrics), len(perLayerDefs))
		}
		for _, m := range []string{"trace.closure_put_pct", "trace.closure_get_pct"} {
			if v := res.Metrics[m]; v < 90 || v > 110 {
				t.Errorf("%s: %s = %.1f, want within 90-110", name, m, v)
			}
		}
		files, _ := os.ReadDir(o.outDir)
		if len(files) != 1 || res.Metrics["trace.spans"] == 0 {
			t.Errorf("%s: span file missing: %d files, %v spans", name, len(files), res.Metrics["trace.spans"])
		}
	}
}

// corruptingAPI flips one byte of every tenth GET body.
type corruptingAPI struct {
	objectAPI
	gets int
}

type flipFirstByte struct {
	io.ReadCloser
	done bool
}

func (f *flipFirstByte) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if n > 0 && !f.done {
		p[0] ^= 0x80
		f.done = true
	}
	return n, err
}

func (c *corruptingAPI) get(ctx context.Context, container, key string) (io.ReadCloser, int64, error) {
	rc, size, err := c.objectAPI.get(ctx, container, key)
	c.gets++
	if err == nil && c.gets%10 == 0 {
		rc = &flipFirstByte{ReadCloser: rc}
	}
	return rc, size, err
}

func TestCorruptBodyFailsTheRun(t *testing.T) {
	o := quickOpts(t, false)
	o.window = 200 * time.Millisecond
	o.wrapAPI = func(a objectAPI) objectAPI { return &corruptingAPI{objectAPI: a} }
	res, err := runWorkload(workloadByName("large-local"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted GET bodies went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestLeakedBudgetSlotFailsTheRun(t *testing.T) {
	o := quickOpts(t, false)
	o.window = 200 * time.Millisecond
	var leaked io.ReadCloser
	o.beforeChecks = func(d *deployment) {
		// A reader opened and never closed keeps its stripe slot.
		rc, _, err := d.broker.Engine(0).GetReader(context.Background(), d.w.containerOf(0), keyName(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Read(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		leaked = rc
	}
	res, err := runWorkload(workloadByName("large-local"), o)
	if leaked != nil {
		leaked.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 0 {
		t.Errorf("leaked stripe buffer went unnoticed: correct=%v failed=%d notes=%v", res.Correct, res.Failed, res.Notes)
	}
}

// BENCHMARK.json is the contract the driver reads; metrics.go is what
// the program emits. They must name the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != def.bound) {
				t.Errorf("%s %s: bound mismatch (json %v, program %v)", kind, def.name, g.Bound, def.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs, true)
	check("per_layer", bj.PerLayer, perLayerDefs, false)
}
