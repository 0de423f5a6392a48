package workload

import (
	"math"
	"strings"
	"testing"
)

func totalReads(s Scenario) int64 {
	var total int64
	for p := 0; p < s.Periods(); p++ {
		for _, l := range s.Load(p) {
			total += l.Reads
		}
	}
	return total
}

func TestMix(t *testing.T) {
	a, b := NewSlashdot(), NewZipf(1)
	m := Mix(a, b)
	if m.Periods() != a.Periods() { // slashdot (180) outlasts zipf (168)
		t.Fatalf("Periods = %d, want %d", m.Periods(), a.Periods())
	}
	// Period 0 carries both parts' creations under distinct prefixes.
	prefixes := map[string]bool{}
	for _, l := range m.Load(0) {
		prefixes[l.Object[:strings.Index(l.Object, "/")+1]] = true
	}
	if !prefixes["p0/"] || !prefixes["p1/"] {
		t.Fatalf("missing part namespaces: %v", prefixes)
	}
	// Past zipf's end only slashdot contributes.
	for _, l := range m.Load(175) {
		if !strings.HasPrefix(l.Object, "p0/") {
			t.Fatalf("late period leaks finished part: %v", l)
		}
	}
	if got, want := totalReads(m), totalReads(a)+totalReads(b); got != want {
		t.Fatalf("mixed reads = %d, want %d", got, want)
	}
}

func TestMixSelf(t *testing.T) {
	m := Mix(NewSlashdot(), NewSlashdot())
	seen := map[string]bool{}
	for _, l := range m.Load(0) {
		if seen[l.Object] {
			t.Fatalf("self-mix collides on %q", l.Object)
		}
		seen[l.Object] = true
	}
	if len(seen) != 2 {
		t.Fatalf("want 2 namespaced objects, got %d", len(seen))
	}
}

func TestConcat(t *testing.T) {
	a, b := NewSlashdot(), NewSlashdot()
	c := Concat(a, b)
	if c.Periods() != 360 {
		t.Fatalf("Periods = %d", c.Periods())
	}
	first, second := c.Load(0), c.Load(180)
	if len(first) != 1 || !strings.HasPrefix(first[0].Object, "p0/") || !first[0].Created {
		t.Fatalf("part 0 creation wrong: %+v", first)
	}
	if len(second) != 1 || !strings.HasPrefix(second[0].Object, "p1/") || !second[0].Created {
		t.Fatalf("part 1 creation wrong: %+v", second)
	}
	// Part 1's spike replays at its own offset.
	if got := c.Load(180 + 50); len(got) != 1 || got[0].Reads != a.ReadsAt(50) {
		t.Fatalf("part 1 spike = %+v", got)
	}
}

func TestShift(t *testing.T) {
	s := Shift(NewSlashdot(), 24)
	if s.Periods() != 204 {
		t.Fatalf("Periods = %d", s.Periods())
	}
	for p := 0; p < 24; p++ {
		if len(s.Load(p)) != 0 {
			t.Fatalf("load during the shift at %d", p)
		}
	}
	got := s.Load(24)
	if len(got) != 1 || !got[0].Created {
		t.Fatalf("creation must move to period 24: %+v", got)
	}
	if s.Load(24 + 50)[0].Reads != NewSlashdot().ReadsAt(50) {
		t.Fatal("shifted loads must replay the original offsets")
	}
}

func TestScale(t *testing.T) {
	base := NewSlashdot()
	doubled := Scale(base, 2)
	if got, want := totalReads(doubled), 2*totalReads(base); got != want {
		t.Fatalf("doubled reads = %d, want %d", got, want)
	}
	// Fractional factors keep aggregate volume via the rounding carry.
	gallery := NewGallery()
	third := Scale(gallery, 1.0/3)
	got, want := totalReads(third), totalReads(gallery)/3
	if got < want-int64(gallery.Periods()) || got > want+int64(gallery.Periods()) {
		t.Fatalf("third reads = %d, want ~%d", got, want)
	}
	// Writes and lifecycle flags pass through.
	if l := doubled.Load(0); len(l) != 1 || l[0].Writes != 1 || !l[0].Created {
		t.Fatalf("scale must not touch writes: %+v", l)
	}
	// Negative and NaN factors clamp to zero traffic.
	if got := totalReads(Scale(base, -2)); got != 0 {
		t.Fatalf("negative factor reads = %d", got)
	}
	if got := totalReads(Scale(base, math.NaN())); got != 0 {
		t.Fatalf("NaN factor reads = %d", got)
	}
}

func TestScaleIdentity(t *testing.T) {
	// Scale(s, 1) must be the identity even for records that carry no
	// traffic — storage-only presence and lifecycle flags included.
	in := `{"format":"scalia-workload-trace","version":1,"name":"x","periods":3}` + "\n" +
		`{"p":0,"obj":"a","size":9,"writes":1,"created":true}` + "\n" +
		`{"p":1,"obj":"a","size":9}` + "\n" + // storage-only record
		`{"p":2,"obj":"a","size":9,"deleted":true}` + "\n"
	tr, err := Import(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !sameScenario(Scale(tr, 1), tr) {
		t.Fatal("Scale(s, 1) must pass every record through unchanged")
	}
	for _, sc := range []Scenario{NewSlashdot(), NewGallery(), NewChurn(3)} {
		if !sameScenario(Scale(sc, 1), sc) {
			t.Fatalf("%s: Scale(s, 1) not identity", sc.Name())
		}
	}
}
