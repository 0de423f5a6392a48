package trend

import (
	"math"
	"testing"
	"testing/quick"
)

// TestChangedIsDetectsGate pins the contract between the two entry points:
// Detect (the Fig. 8/9 marker series) fires at i exactly when the
// stateless gate the optimizer applies to an object's last w+1 periods
// does, and non-positive detector arguments mean the paper defaults.
func TestChangedIsDetectsGate(t *testing.T) {
	var series []float64
	for i := 0; i < 120; i++ {
		series = append(series, 50+40*math.Sin(float64(i)/5)+float64(i%7))
	}
	for _, w := range []int{1, DefaultWindow, 10} {
		fired := make(map[int]bool)
		for _, i := range Detect(series, w, DefaultLimit) {
			fired[i] = true
		}
		for i := range series {
			want := i >= w && Changed(series[i-w:i+1], w, DefaultLimit)
			if fired[i] != want {
				t.Fatalf("w=%d i=%d: Detect fired %v, Changed says %v", w, i, fired[i], want)
			}
		}
	}
	if got, want := Detect(series, 0, 0), Detect(series, DefaultWindow, DefaultLimit); len(got) != len(want) || len(got) == 0 {
		t.Fatalf("defaults fired %d times, w=3 limit=0.1 %d times", len(got), len(want))
	}
}

func TestNoDetectionWhileFilling(t *testing.T) {
	d := NewDetector(3, 0.1)
	if d.Observe(100) || d.Observe(0) {
		t.Fatal("no detection before the window is primed")
	}
}

func TestFlatSeriesNeverFires(t *testing.T) {
	d := NewDetector(3, 0.1)
	for i := 0; i < 50; i++ {
		if d.Observe(42) && i >= 3 {
			t.Fatalf("flat series fired at %d", i)
		}
	}
}

func TestStepChangeFires(t *testing.T) {
	d := NewDetector(3, 0.1)
	for i := 0; i < 10; i++ {
		d.Observe(10)
	}
	// A jump from 10 to 100 moves the SMA by (100-10)/3 = 30 over base 10:
	// momentum 3.0 >> 0.1.
	if !d.Observe(100) {
		t.Fatal("step change must fire")
	}
}

func TestSlowDriftUnderLimitSilent(t *testing.T) {
	d := NewDetector(3, 0.1)
	v := 100.0
	fired := 0
	for i := 0; i < 100; i++ {
		if d.Observe(v) && i >= 3 {
			fired++
		}
		v *= 1.01 // 1% per period, SMA momentum ~1% < 10%
	}
	if fired != 0 {
		t.Fatalf("slow drift fired %d times", fired)
	}
}

func TestWakeUpFromSilence(t *testing.T) {
	// A cold object receiving its first requests (the Slashdot onset)
	// must fire despite a zero baseline.
	d := NewDetector(3, 0.1)
	for i := 0; i < 48; i++ {
		d.Observe(0)
	}
	if !d.Observe(50) {
		t.Fatal("wake-up from zero must fire")
	}
}

func TestMomentum(t *testing.T) {
	cases := []struct {
		prev, cur, want float64
	}{
		{100, 110, 0.1},
		{100, 90, 0.1},
		{0, 5, 5},     // clamped base 1
		{0.5, 2, 1.5}, // clamped base 1
		{200, 200, 0},
	}
	for _, c := range cases {
		if got := Momentum(c.prev, c.cur); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Momentum(%v,%v) = %v, want %v", c.prev, c.cur, got, c.want)
		}
	}
}

func TestMomentumNonNegativeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return Momentum(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDetectSlashdotShape(t *testing.T) {
	// Synthetic flash crowd: 48 quiet periods, a 3-period ramp to 150,
	// then a slow decay of 2/period. Detection must fire at the onset,
	// and total detections must be far fewer than the series length
	// (that sparsity is the point of trend gating, Fig. 8).
	var series []float64
	for i := 0; i < 48; i++ {
		series = append(series, 0)
	}
	series = append(series, 50, 100, 150)
	v := 150.0
	for v > 0 {
		v -= 2
		series = append(series, v)
	}
	changes := Detect(series, 3, 0.1)
	if len(changes) == 0 {
		t.Fatal("no changes detected")
	}
	if changes[0] < 48 || changes[0] > 50 {
		t.Fatalf("first detection at %d, want onset near 48", changes[0])
	}
	if len(changes) > len(series)/3 {
		t.Fatalf("%d detections for %d periods: gating too chatty", len(changes), len(series))
	}
}

func TestDetectHigherLimitFiresLess(t *testing.T) {
	var series []float64
	for i := 0; i < 200; i++ {
		series = append(series, 50+40*math.Sin(float64(i)/5))
	}
	loose := Detect(series, 3, 0.05)
	tight := Detect(series, 3, 0.5)
	if len(tight) > len(loose) {
		t.Fatalf("limit 0.5 fired %d > limit 0.05 fired %d", len(tight), len(loose))
	}
}

func TestLargerWindowSmoothes(t *testing.T) {
	// Alternating spikes: a wide window averages them out.
	var series []float64
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			series = append(series, 100)
		} else {
			series = append(series, 60)
		}
	}
	narrow := Detect(series, 2, 0.15)
	wide := Detect(series, 10, 0.15)
	if len(wide) > len(narrow) {
		t.Fatalf("wide window fired %d > narrow %d", len(wide), len(narrow))
	}
}
