package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketAssignment(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1 gets {0.5, 1}; le=2 gets {1.5, 2}; le=4 gets {3, 4}; +Inf gets {100}.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.5+2+3+4+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestQuantileExactAtBucketEdges(t *testing.T) {
	// 100 observations split 50/50 across the first two buckets: the
	// p50 rank lands exactly on the first bucket's cumulative count, so
	// the estimate must be exactly the bucket bound — no interpolation
	// slack.
	h := newHistogram([]float64{1, 2, 3})
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 1.0 {
		t.Errorf("p50 = %v, want exactly 1.0", got)
	}
	if got := s.Quantile(1.0); got != 2.0 {
		t.Errorf("p100 = %v, want exactly 2.0", got)
	}
	// Rank interior to the second bucket: interpolated within (1, 2].
	if got := s.Quantile(0.75); got <= 1.0 || got > 2.0 {
		t.Errorf("p75 = %v, want in (1.0, 2.0]", got)
	}
}

func TestQuantileBounds(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if !math.IsNaN(h.Snapshot().Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(0.5)
	s := h.Snapshot()
	if !math.IsNaN(s.Quantile(0)) || !math.IsNaN(s.Quantile(1.5)) {
		t.Error("out-of-range q should be NaN")
	}
	// Single observation: every quantile falls in the first bucket.
	if got := s.Quantile(0.99); got <= 0 || got > 1 {
		t.Errorf("q=0.99 with one sample = %v, want in (0, 1]", got)
	}
	// Overflow-bucket quantile reports the largest finite bound.
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(50)
	if got := h2.Snapshot().Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want 2 (largest finite bound)", got)
	}
}

func TestSnapshotMergeAndSub(t *testing.T) {
	a := newHistogram([]float64{1, 2})
	b := newHistogram([]float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	b.Observe(1.5)
	b.Observe(5)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 4 {
		t.Errorf("merged Count = %d, want 4", m.Count)
	}
	if got := []uint64{m.Counts[0], m.Counts[1], m.Counts[2]}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("merged counts = %v, want [1 2 1]", got)
	}
	if math.Abs(m.Sum-8.5) > 1e-9 {
		t.Errorf("merged Sum = %v, want 8.5", m.Sum)
	}

	// Merging with an empty snapshot is the identity.
	if got := a.Snapshot().Merge(HistogramSnapshot{}); got.Count != 2 {
		t.Errorf("merge with zero snapshot lost data: %+v", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// while a reader repeatedly snapshots, checking that (a) snapshots are
// monotonically non-decreasing per bucket, and (b) the final tallies
// are exact. Run under -race this also proves the lock-free paths are
// data-race clean.
func TestHistogramConcurrent(t *testing.T) {
	const (
		writers        = 8
		perWriter      = 5000
		observedValue  = 1.5 // always lands in bucket le=2
		expectedBucket = 1
	)
	h := newHistogram([]float64{1, 2, 3})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan string, 4)

	// Concurrent observers.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(observedValue)
			}
		}()
	}
	// Concurrent snapshotters asserting per-bucket monotonicity.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last HistogramSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if last.Counts != nil {
					for i := range s.Counts {
						if s.Counts[i] < last.Counts[i] {
							select {
							case errc <- "bucket count went backwards":
							default:
							}
							return
						}
					}
					if s.Count < last.Count {
						select {
						case errc <- "total count went backwards":
						default:
						}
						return
					}
				}
				last = s
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}

	s := h.Snapshot()
	want := uint64(writers * perWriter)
	if s.Count != want {
		t.Errorf("final Count = %d, want %d", s.Count, want)
	}
	if s.Counts[expectedBucket] != want {
		t.Errorf("bucket le=2 = %d, want %d", s.Counts[expectedBucket], want)
	}
	if wantSum := float64(want) * observedValue; math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("final Sum = %v, want %v", s.Sum, wantSum)
	}
}
