package stats

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestSampleOpsAndMerge(t *testing.T) {
	a := Sample{Period: 3, Reads: 2, Writes: 1, Deletes: 1, BytesOut: 100, BytesIn: 50, StorageBytes: 10}
	if a.Ops() != 4 {
		t.Fatalf("Ops = %d, want 4", a.Ops())
	}
	b := Sample{Period: 3, Reads: 3, BytesOut: 30, StorageBytes: 25}
	a.Merge(b)
	if a.Reads != 5 || a.BytesOut != 130 || a.StorageBytes != 25 {
		t.Fatalf("Merge result: %+v", a)
	}
	// StorageBytes is a gauge: merging a smaller gauge keeps the max.
	a.Merge(Sample{StorageBytes: 5})
	if a.StorageBytes != 25 {
		t.Fatalf("StorageBytes gauge = %d, want 25", a.StorageBytes)
	}
}

func TestSummarize(t *testing.T) {
	samples := []Sample{
		{Period: 1, Reads: 10, BytesOut: 1000, StorageBytes: 500},
		{Period: 2, Reads: 20, BytesOut: 2000, StorageBytes: 500},
	}
	sum := Summarize(samples, 4) // two zero periods implied
	if sum.Periods != 4 {
		t.Fatalf("Periods = %d", sum.Periods)
	}
	if sum.Reads != 7.5 {
		t.Errorf("Reads = %v, want 7.5", sum.Reads)
	}
	if sum.BytesOut != 750 {
		t.Errorf("BytesOut = %v, want 750", sum.BytesOut)
	}
	// Storage averages only over periods where the object existed.
	if sum.StorageBytes != 500 {
		t.Errorf("StorageBytes = %v, want 500", sum.StorageBytes)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil, 0); got != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v", got)
	}
}

func TestHistoryWindow(t *testing.T) {
	h := NewHistory(0)
	for p := int64(1); p <= 10; p++ {
		h.Record(Sample{Period: p, Reads: p})
	}
	win := h.Window(10, 3)
	if len(win) != 3 || win[0].Period != 8 || win[2].Period != 10 {
		t.Fatalf("Window = %+v", win)
	}
	// Gap handling: window over missing periods returns only present ones.
	win = h.Window(15, 6)
	if len(win) != 1 || win[0].Period != 10 {
		t.Fatalf("Window with gap = %+v", win)
	}
}

// TestHistorySummaryIsSummarizeOfWindow: Summary sums the window as it
// reads it, to the bit what Summarize makes of Window, and allocates
// nothing.
func TestHistorySummaryIsSummarizeOfWindow(t *testing.T) {
	h := NewHistory(0)
	for p := int64(1); p <= 40; p++ {
		if p%3 != 0 { // gaps count as idle periods
			h.Record(Sample{Period: p, Reads: p * 7, Writes: p % 5, BytesOut: p * 1e9 / 3, BytesIn: p * 12345, StorageBytes: (p % 4) * 1e7})
		}
	}
	for _, w := range []struct {
		now int64
		n   int
	}{{40, 1}, {40, 7}, {40, 24}, {45, 24}, {10, 40}, {40, 0}, {0, 5}} {
		if got, want := h.Summary(w.now, w.n), Summarize(h.Window(w.now, w.n), w.n); !reflect.DeepEqual(got, want) {
			t.Errorf("Summary(%d, %d) = %+v, Summarize of the window %+v", w.now, w.n, got, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() { h.Summary(40, 24) }); a != 0 {
		t.Fatalf("Summary: %v allocations", a)
	}
}

func TestHistoryMergesSamePeriod(t *testing.T) {
	h := NewHistory(0)
	h.Record(Sample{Period: 5, Reads: 1})
	h.Record(Sample{Period: 5, Reads: 2})
	win := h.Window(5, 1)
	if len(win) != 1 || win[0].Reads != 3 {
		t.Fatalf("merged window = %+v", win)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
}

func TestHistoryEviction(t *testing.T) {
	h := NewHistory(5)
	for p := int64(1); p <= 8; p++ {
		h.Record(Sample{Period: p, Reads: 1})
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d, want 5", h.Len())
	}
	if span := h.Span(8); span != 5 {
		t.Fatalf("span to the oldest retained = %d, want 5 (periods 4..8)", span)
	}
}

func TestHistorySpan(t *testing.T) {
	h := NewHistory(0)
	if h.Span(10) != 0 {
		t.Fatal("empty history must have span 0")
	}
	h.Record(Sample{Period: 4})
	if got := h.Span(10); got != 7 {
		t.Fatalf("Span = %d, want 7", got)
	}
}

func TestHistoryOpsSeries(t *testing.T) {
	h := NewHistory(0)
	h.Record(Sample{Period: 2, Reads: 5})
	h.Record(Sample{Period: 4, Writes: 3})
	got := h.OpsSeries(5, 5)
	want := []float64{0, 5, 0, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OpsSeries = %v, want %v", got, want)
		}
	}
}

func TestHistoryConcurrent(t *testing.T) {
	h := NewHistory(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for p := int64(0); p < 200; p++ {
				h.Record(Sample{Period: p, Reads: 1})
				h.Window(p, 10)
			}
		}(int64(g))
	}
	wg.Wait()
	sum := h.Summary(199, 200)
	if sum.Reads != 8 {
		t.Fatalf("Reads/period = %v, want 8", sum.Reads)
	}
}

func TestDiscretizeSize(t *testing.T) {
	cases := []struct {
		in, want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {1 << 20, 1}, {1<<20 + 1, 2}, {10 << 20, 10},
	}
	for _, c := range cases {
		if got := DiscretizeSize(c.in); got != c.want {
			t.Errorf("DiscretizeSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestClassKeyStableAndDistinct(t *testing.T) {
	a := ClassKey("image/gif", 250<<10)
	b := ClassKey("image/gif", 260<<10) // same MB bucket
	if a != b {
		t.Error("sizes in the same MB bucket must share a class")
	}
	c := ClassKey("image/gif", 5<<20)
	if a == c {
		t.Error("different MB buckets must differ")
	}
	d := ClassKey("application/zip", 250<<10)
	if a == d {
		t.Error("different mimes must differ")
	}
	if len(a) != 32 {
		t.Errorf("class key must be an MD5 hex string, got %q", a)
	}
}

func TestLifetimeExpectedTTLPaperShape(t *testing.T) {
	// Fig. 5: a class of 20 objects with lifetimes spread over 0-6 hours.
	// The expected-TTL curve must be decreasing in expectation and the
	// tail conditional must exceed the unconditional mean minus age.
	d := NewLifetimeDist(0)
	for i := 0; i < 20; i++ {
		d.Observe(6 * float64(i) / 19)
	}
	atBirth, ok := d.ExpectedTTL(0)
	if !ok {
		t.Fatal("expected TTL at birth")
	}
	if math.Abs(atBirth-3.157894736) > 1e-6 {
		t.Errorf("E[TTL|age 0] = %v, want mean of positive lifetimes ~3.158", atBirth)
	}
	at2h, ok := d.ExpectedTTL(2)
	if !ok {
		t.Fatal("expected TTL at age 2")
	}
	if at2h >= atBirth {
		t.Errorf("E[TTL|2h] = %v must be below E[TTL|0] = %v", at2h, atBirth)
	}
	if at2h <= 0 {
		t.Errorf("E[TTL|2h] = %v must be positive", at2h)
	}
	// Beyond every observed lifetime there is no estimate.
	if _, ok := d.ExpectedTTL(7); ok {
		t.Error("no TTL estimate should exist past the max observed lifetime")
	}
}

func TestLifetimeQuantileAndHistogram(t *testing.T) {
	d := NewLifetimeDist(0)
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if q, _ := d.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q, _ := d.Quantile(1); q != 100 {
		t.Errorf("q1 = %v", q)
	}
	if q, _ := d.Quantile(0.5); math.Abs(q-50) > 1.5 {
		t.Errorf("median = %v, want ~50", q)
	}
	hist := d.Histogram(10, 10)
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != 100 {
		t.Errorf("histogram total = %d, want 100", total)
	}
}

func TestLifetimeReservoirBounded(t *testing.T) {
	d := NewLifetimeDist(64)
	for i := 0; i < 10000; i++ {
		d.Observe(float64(i % 100))
	}
	if d.Count() != 10000 {
		t.Fatalf("Count = %d", d.Count())
	}
	if len(d.lifetimes) != 64 {
		t.Fatalf("reservoir size = %d, want 64", len(d.lifetimes))
	}
	// The estimator must still produce a value in the observed range.
	ttl, ok := d.ExpectedTTL(0)
	if !ok || ttl <= 0 || ttl >= 100 {
		t.Fatalf("ExpectedTTL = %v, %v", ttl, ok)
	}
}

func TestLifetimeRejectsGarbage(t *testing.T) {
	d := NewLifetimeDist(0)
	d.Observe(-1)
	d.Observe(math.NaN())
	d.Observe(math.Inf(1))
	if d.Count() != 0 {
		t.Fatalf("garbage observations must be dropped, Count = %d", d.Count())
	}
}

func TestTTLCurveMonotoneProperty(t *testing.T) {
	// Property: remaining lifetime estimates stay within the observed
	// support for any age within it.
	f := func(seed uint8) bool {
		d := NewLifetimeDist(0)
		for i := 0; i <= int(seed%40)+2; i++ {
			d.Observe(float64(i) * 0.5)
		}
		for age := 0.0; age <= float64(seed%40)*0.5; age += 0.5 {
			if v, _ := d.ExpectedTTL(age); v < 0 || v > 25 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassRecordExpectedSummary(t *testing.T) {
	rec := newClassRecord()
	if _, ok := rec.ExpectedSummary(); ok {
		t.Fatal("empty class must report no expectation")
	}
	rec.ObserveSample(Sample{Reads: 10, BytesOut: 1000, StorageBytes: 100})
	rec.ObserveSample(Sample{Reads: 0, BytesOut: 0, StorageBytes: 100})
	sum, ok := rec.ExpectedSummary()
	if !ok {
		t.Fatal("expected a summary")
	}
	if sum.Reads != 5 || sum.BytesOut != 500 || sum.StorageBytes != 100 {
		t.Fatalf("ExpectedSummary = %+v", sum)
	}
}

func TestDBApplyAndHistory(t *testing.T) {
	db := NewDB(1)
	class := ClassKey("image/gif", 1000)
	db.Apply(Event{Object: "o1", Class: class, Kind: EventWrite, Bytes: 1000, StorageBytes: 1000, Period: 1})
	db.Apply(Event{Object: "o1", Class: class, Kind: EventRead, Bytes: 1000, StorageBytes: 1000, Period: 2})
	db.Apply(Event{Object: "o1", Class: class, Kind: EventRead, Bytes: 1000, StorageBytes: 1000, Period: 2})

	h := db.History("o1")
	if h == nil {
		t.Fatal("missing history")
	}
	sum := h.Summary(2, 2)
	if sum.Reads != 1 || sum.Writes != 0.5 {
		t.Fatalf("summary = %+v", sum)
	}
	if created, _ := db.CreatedAt("o1"); created != 1 {
		t.Fatalf("created = %d", created)
	}
	if age := db.AgeHours("o1", 5); age != 4 {
		t.Fatalf("age = %v", age)
	}
}

func TestDBAccessedSince(t *testing.T) {
	db := NewDB(1)
	db.Apply(Event{Object: "a", Kind: EventWrite, Period: 1})
	db.Apply(Event{Object: "b", Kind: EventWrite, Period: 5})
	db.Apply(Event{Object: "a", Kind: EventRead, Period: 7})
	got := db.AccessedSince(5)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("AccessedSince = %v", got)
	}
	got = db.AccessedSince(6)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("AccessedSince(6) = %v", got)
	}
}

// TestDBDeletionFeedsLifetimeThenForgets: a delete event folds the
// object's lifetime into its class and is the last thing the database
// remembers of the object — deleted keys must not pile up or be scanned
// by the next optimization round — until a later write starts it afresh.
func TestDBDeletionFeedsLifetimeThenForgets(t *testing.T) {
	db := NewDB(1)
	class := ClassKey("backup/tar", 40<<20)
	db.Apply(Event{Object: "o", Class: class, Kind: EventWrite, Period: 10, StorageBytes: 40 << 20})
	db.Apply(Event{Object: "o", Class: class, Kind: EventDelete, Period: 16})
	ttl, ok := db.Classes().ExpectedTTL(class, 0)
	if !ok {
		t.Fatal("lifetime distribution must exist after a deletion")
	}
	if ttl != 6 {
		t.Fatalf("ExpectedTTL = %v, want 6", ttl)
	}
	if db.History("o") != nil || len(db.AccessedSince(0)) != 0 {
		t.Fatalf("deleted object still known: history %v, accessed %v", db.History("o"), db.AccessedSince(0))
	}
	// A stray second delete has nothing to fold and must not invent a
	// zero-hour lifetime.
	db.Apply(Event{Object: "o", Class: class, Kind: EventDelete, Period: 17})
	if n := db.Classes().Class(class).Lifetimes().Count(); n != 1 {
		t.Fatalf("lifetime observations = %d, want 1", n)
	}
	// The key created again starts from nothing.
	db.Apply(Event{Object: "o", Class: class, Kind: EventWrite, Period: 20, StorageBytes: 1})
	if created, _ := db.CreatedAt("o"); created != 20 || db.History("o").Len() != 1 {
		t.Fatalf("re-created object: created %d, %d recorded periods", created, db.History("o").Len())
	}
}

// TestApplyIsOneCriticalSection races writes, reads and deletes of a few
// objects: at rest the optimizer's working set is exactly the objects with
// a history.
func TestApplyIsOneCriticalSection(t *testing.T) {
	db := NewDB(1)
	objects := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				kind := EventKind((g + j) % 3)
				db.Apply(Event{Object: objects[(g*7+j)%len(objects)], Class: "k", Kind: kind, Bytes: 1, Period: int64(j)})
				db.AccessedSince(0)
			}
		}(g)
	}
	wg.Wait()

	var known []string
	for _, obj := range objects {
		if db.History(obj) != nil {
			known = append(known, obj)
		}
	}
	if got := db.AccessedSince(0); !reflect.DeepEqual(got, known) {
		t.Fatalf("AccessedSince(0) = %v, objects with a history %v", got, known)
	}
}
