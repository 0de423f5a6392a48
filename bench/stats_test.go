package main

import (
	"math"
	"testing"
)

func TestPercentileIsAnOrderStatistic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestHighestSupportedKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSliceRate(t *testing.T) {
	// 6 s window, six slices; 10 instant ops in every slice but one,
	// which stalls: the median ignores the stall.
	var start, end []float64
	for s := 0; s < 6; s++ {
		n := 10
		if s == 3 {
			n = 1
		}
		for i := 0; i < n; i++ {
			at := float64(s) + float64(i)/10
			start, end = append(start, at), append(end, at)
		}
	}
	if got := sliceRate(start, end, 6, 6); got != 10 {
		t.Errorf("sliceRate = %v, want 10", got)
	}
	// One op spanning two slices counts half in each; what lies beyond
	// the window is dropped.
	if got := sliceRate([]float64{0.5, 1.5, 2.5}, []float64{1.5, 2.5, 3.5}, 3, 3); got != 1 {
		t.Errorf("split ops: sliceRate = %v, want 1 (slices hold 0.5, 1, 1)", got)
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		union    int64
		self     int64
		overlap  int
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {40, 60}}, 30, 70, 1},
		{"overlapping", []interval{{10, 50}, {30, 70}}, 60, 40, 2},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 80, 20, 2},
		{"zero-length", []interval{{50, 50}, {60, 60}}, 0, 100, 0},
		{"inverted", []interval{{70, 60}}, 0, 100, 0},
		{"touching", []interval{{10, 20}, {20, 30}}, 20, 80, 1},
		{"identical", []interval{{10, 20}, {10, 20}, {10, 20}}, 10, 90, 3},
		{"unsorted", []interval{{80, 90}, {0, 10}, {5, 15}}, 25, 75, 2},
	} {
		kids := append([]interval(nil), c.children...)
		if got := unionLen(kids); got != c.union {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.union)
		}
		if got := selfTime(parent, append([]interval(nil), c.children...)); got != c.self {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.self)
		}
		if got := maxOverlap(c.children); got != c.overlap {
			t.Errorf("%s: maxOverlap = %d, want %d", c.name, got, c.overlap)
		}
	}
	// Children outside the parent are clipped, never subtracted twice.
	if got := selfTime(interval{100, 200}, []interval{{50, 150}, {180, 300}, {0, 10}}); got != 30 {
		t.Errorf("clipped: selfTime = %d, want 30", got)
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2}, 1.0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10.0, 12.5, 11.0, 13.0, 10.5}, 0.22727272727272727},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
