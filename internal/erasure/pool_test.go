package erasure

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// TestEncodePooledMatchesEncode drives the pooled encoder through
// several rounds of differently-sized payloads (so recycled backing is
// both grown and reused dirty) and checks every round decodes and
// verifies exactly like the allocating path.
func TestEncodePooledMatchesEncode(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 100, 1 << 10, 17, 1 << 10, 3}
	for round, size := range sizes {
		data := bytes.Repeat([]byte{byte(round + 1)}, size)
		want, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodePooled(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d chunks, want %d", round, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d: chunk %d differs from allocating Encode", round, i)
			}
		}
		if ok, err := c.Verify(got); err != nil || !ok {
			t.Fatalf("round %d: pooled parity inconsistent (ok=%v err=%v)", round, ok, err)
		}
		// Drop two chunks and decode to prove padding of recycled
		// buffers was re-zeroed (garbage padding would corrupt parity
		// math on reconstruction paths).
		got[0], got[4] = nil, nil
		back, err := c.Decode(got, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round %d: decode mismatch after pooled encode", round)
		}
		ReleaseChunks(got)
	}
}

// FuzzEncodeFill checks the fill core against the scalar reference
// encoder: the pool is first left holding a larger chunk set soiled with
// dirt, so the padding and parity the core computes land on dirty
// backing. fill sees exactly the payload's bytes, and a fill that fails
// gets its error back and no chunks.
func FuzzEncodeFill(f *testing.F) {
	f.Add(uint8(4), uint8(1), []byte("scalia"), byte(0xff), false)
	f.Add(uint8(1), uint8(1), []byte{}, byte(0x5a), false)
	f.Add(uint8(3), uint8(2), bytes.Repeat([]byte{7}, 1000), byte(1), false)
	f.Add(uint8(2), uint8(1), []byte("short"), byte(0xa5), true)
	f.Fuzz(func(t *testing.T, m, parity uint8, data []byte, dirt byte, fail bool) {
		c, err := Cached(1+int(m%16), 1+int(m%16)+int(parity%9))
		if err != nil {
			t.Fatal(err)
		}
		soiled, err := c.EncodePooled(make([]byte, 2*len(data)+c.m))
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range soiled {
			for i := range ch {
				ch[i] = dirt
			}
		}
		ReleaseChunks(soiled)

		errFill := errors.New("body ended")
		got, err := c.EncodeFill(len(data), func(d []byte) error {
			if len(d) != len(data) || cap(d) != len(data) {
				t.Fatalf("fill got %d bytes of capacity %d, want %d", len(d), cap(d), len(data))
			}
			if fail {
				copy(d, data[:len(data)/2])
				return errFill
			}
			copy(d, data)
			return nil
		})
		if fail {
			if err != errFill || got != nil {
				t.Fatalf("failed fill: EncodeFill = %d chunks, %v; want none, the fill's error", len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := c.encodeRef(data)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("(%d, %d), %d bytes: chunk %d differs from encodeRef", c.m, c.n, len(data), i)
			}
		}
		ReleaseChunks(got)
	})
}

// raceEnabled is set by race_test.go under -race, whose sync.Pool drops
// items at random: an allocation count means nothing there.
var raceEnabled bool

// TestVerifyAllocatesNothing pins that coding a 4 MiB stripe touches the
// allocator nowhere once the pools are warm: Verify recomputes parity
// into one pooled buffer, and the pooled encode keeps its job list on
// the stack — at single parity, at the broker's (4, 5) and at four
// parity rows, where the 4x4 micro-kernel runs.
func TestVerifyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	for _, mn := range [][2]int{{1, 2}, {4, 5}, {4, 8}} {
		c, err := Cached(mn[0], mn[1])
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		verify := func() {
			if ok, err := c.Verify(chunks); err != nil || !ok {
				t.Fatalf("(%d,%d): Verify = %v, %v", c.m, c.n, ok, err)
			}
		}
		if a := testing.AllocsPerRun(5, verify); a != 0 {
			t.Errorf("(%d,%d): %v allocs per Verify, want 0", c.m, c.n, a)
		}
		encode := func() {
			got, err := c.EncodePooled(data)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseChunks(got)
		}
		if a := testing.AllocsPerRun(5, encode); a != 0 {
			t.Errorf("(%d,%d): %v allocs per EncodePooled, want 0", c.m, c.n, a)
		}
	}
}

// BenchmarkEncodePooled measures the steady-state pooled encode; the
// interesting number is allocs/op, which should be zero.
func BenchmarkEncodePooled(b *testing.B) {
	c, err := New(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	data := bytes.Repeat([]byte("s"), 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks, err := c.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		ReleaseChunks(chunks)
	}
}

// TestReconstructPooledMatchesReconstructSlots runs the pooled rebuild
// over rounds of differently-sized stripes and erasure sets, releasing
// each round's scratch so the next one lands on recycled, dirty memory,
// and checks every rebuilt chunk against the encoded one. Nothing missing
// among the slots asked for lends no scratch; once the pool is warm a
// rebuild of lost parity allocates nothing (a lost data chunk still
// costs the decode matrix's few small allocations).
func TestReconstructPooledMatchesReconstructSlots(t *testing.T) {
	c, err := New(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round, tc := range []struct {
		size       int
		have, want []int
	}{
		{1 << 12, []int{0, 1, 4}, []int{2, 3}},
		{17, []int{1, 2, 3}, []int{0}},
		{1 << 12, []int{0, 2, 3}, []int{1, 4}},
		{3000, []int{0, 1, 2}, []int{3}},
		{0, []int{2, 3, 4}, []int{0, 1}},
	} {
		data := bytes.Repeat([]byte{byte(round + 1), byte(round * 7)}, tc.size/2+1)[:tc.size]
		full, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		chunks := make([][]byte, c.n)
		for _, i := range tc.have {
			chunks[i] = full[i]
		}
		scratch, err := c.ReconstructPooled(chunks, tc.want)
		if err != nil || scratch == nil {
			t.Fatalf("round %d: scratch %v, %v", round, scratch, err)
		}
		for _, i := range tc.want {
			if !bytes.Equal(chunks[i], full[i]) {
				t.Fatalf("round %d: rebuilt slot %d differs from the encoded chunk", round, i)
			}
		}
		for i := range chunks {
			if chunks[i] != nil && !slices.Contains(tc.have, i) && !slices.Contains(tc.want, i) {
				t.Fatalf("round %d: slot %d was not asked for and was produced", round, i)
			}
		}
		if again, err := c.ReconstructPooled(chunks, tc.want); err != nil || again != nil {
			t.Fatalf("round %d: a rebuild with nothing missing lent %v, %v", round, again, err)
		}
		ReleaseScratch(scratch)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	full, _ := c.Encode(make([]byte, 1<<16))
	chunks := make([][]byte, c.n)
	rebuild := func() {
		copy(chunks, full)
		chunks[3], chunks[4] = nil, nil
		scratch, err := c.ReconstructPooled(chunks, []int{3, 4})
		if err != nil {
			t.Fatal(err)
		}
		ReleaseScratch(scratch)
	}
	if a := testing.AllocsPerRun(20, rebuild); a != 0 {
		t.Errorf("%v allocs per warm ReconstructPooled, want 0", a)
	}
}
