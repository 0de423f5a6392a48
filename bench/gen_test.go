package main

import (
	"reflect"
	"testing"
)

func firstOps(w *workload, seed int64, client, n int) []op {
	own := (w.preload - client + numClients - 1) / numClients
	g := newOpGen(seed, client, own, w.putShare, w.creates, w.zipfS)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// The op sequence is a pure function of the seed and the client id, and
// a client never leaves its own key partition — which is what keeps a
// read from ever racing a write of the same key.
func TestOpSequenceIsSeededAndPartitioned(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < numClients; c++ {
			a, b := firstOps(w, 1, c, 1000), firstOps(w, 1, c, 1000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: same seed gave different ops", w.name, c)
			}
			if other := firstOps(w, 2, c, 1000); reflect.DeepEqual(a, other) {
				t.Errorf("%s client %d: seeds 1 and 2 gave the same ops", w.name, c)
			}
			puts := 0
			for _, o := range a {
				if o.key%numClients != c {
					t.Fatalf("%s client %d generated key %d of another partition", w.name, c, o.key)
				}
				if o.kind == opPut {
					puts++
				}
			}
			if share := float64(puts) / 1000; share < w.putShare-0.06 || share > w.putShare+0.06 {
				t.Errorf("%s client %d: PUT share %.3f, want about %.2f", w.name, c, share, w.putShare)
			}
		}
		if a, b := firstOps(w, 1, 0, 1000), firstOps(w, 1, 1, 1000); reflect.DeepEqual(a, b) {
			t.Errorf("%s: both clients generated the same ops", w.name)
		}
	}
}

// A create-PUT always names a key no earlier op touched, and a GET only
// keys that exist by then.
func TestCreatesNeverCollide(t *testing.T) {
	w := workloadByName("rtt-striped")
	live := map[int]bool{}
	for k := 0; k < w.preload; k += numClients {
		live[k] = true
	}
	for _, o := range firstOps(w, 7, 0, 2000) {
		switch {
		case o.kind == opPut && live[o.key]:
			t.Fatalf("create-PUT reused key %d", o.key)
		case o.kind == opGet && !live[o.key]:
			t.Fatalf("GET of key %d before it exists", o.key)
		}
		live[o.key] = true
	}
}

func TestPayloadsDifferPerKeyAndVersion(t *testing.T) {
	p := newPayloads(1, 4096)
	seen := map[uint32]bool{}
	for key := 0; key < 10; key++ {
		for v := uint32(1); v <= 10; v++ {
			seen[p.crcOf(header(key, v))] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("100 (key, version) stamps gave %d distinct CRCs", len(seen))
	}
	if q := newPayloads(2, 4096); q.crcOf(header(0, 1)) == p.crcOf(header(0, 1)) {
		t.Error("payload does not depend on the seed")
	}
}
