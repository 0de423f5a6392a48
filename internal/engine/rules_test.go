package engine

import (
	"bytes"
	"slices"
	"testing"

	"scalia/internal/cloud"
	"scalia/internal/core"
)

// TestPinnedRuleGovernsEveryReplan: the rule a write pins is kept in its
// version's row, so every later re-plan of the version — a repair, the
// drain after a market event, a multipart upload's repair — stays inside
// it, and an overwrite without one follows the container's rule again.
// The pinned rule is the paper's Rule 2 (EU only), which on the paper
// market leaves the two S3 offers, [S3(h), S3(l); m:1], and no spare.
func TestPinnedRuleGovernsEveryReplan(t *testing.T) {
	eu := core.PaperRules()[1]
	euOnly := []string{cloud.NameS3High, cloud.NameS3Low}
	onEU := func(t *testing.T, e *Engine, key string) ObjectMeta {
		t.Helper()
		meta, err := e.Head(ctx, "c", key)
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Clone(meta.Chunks)
		slices.Sort(got)
		if meta.M != 1 || !slices.Equal(got, euOnly) {
			t.Fatalf("%s is on %v, m:%d; Rule 2 allows only %v, m:1", key, meta.Chunks, meta.M, euOnly)
		}
		if meta.Rule == nil || meta.Rule.Name != eu.Name || !slices.Equal(meta.Rule.Zones, eu.Zones) {
			t.Fatalf("%s keeps rule %+v, want %+v", key, meta.Rule, eu)
		}
		return meta
	}
	// repairSkips takes S3(l) down: with no other EU provider, the pinned
	// object has no repair plan and must be left where it is.
	repairSkips := func(t *testing.T, b *Broker, key string) {
		t.Helper()
		blob(t, b, cloud.NameS3Low).SetAvailable(false)
		rep, err := b.Repair(ctx, RepairActive)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Affected != 1 || rep.Skipped != 1 || rep.Repaired != 0 {
			t.Fatalf("repair report = %+v, want the pinned object affected and skipped", rep)
		}
		onEU(t, b.Engine(0), key)
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, b *Broker, clock *SimClock)
	}{
		{"repair", func(t *testing.T, b *Broker, _ *SimClock) {
			if _, err := b.Engine(0).Put(ctx, "c", "k", make([]byte, 4<<10), PutOptions{Rule: &eu}); err != nil {
				t.Fatal(err)
			}
			onEU(t, b.Engine(0), "k")
			repairSkips(t, b, "k")
		}},
		{"market event", func(t *testing.T, b *Broker, clock *SimClock) {
			e := b.Engine(0)
			body := make([]byte, 4<<20)
			if _, err := e.Put(ctx, "c", "k", body, PutOptions{Rule: &eu}); err != nil {
				t.Fatal(err)
			}
			control, err := e.Put(ctx, "c", "free", body, PutOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(control.Chunks, func(name string) bool { return slices.Contains(euOnly, name) }) {
				t.Fatalf("the control object is on %v, out of the event's reach", control.Chunks)
			}
			onEU(t, e, "k")
			clock.Advance(2)
			for _, name := range euOnly {
				store, _ := b.Registry().Store(name)
				p := store.Spec().Pricing
				p.StorageGBMonth *= 50
				if _, err := b.SetProviderPricing(name, p); err != nil {
					t.Fatal(err)
				}
			}
			b.DrainMaintenance(ctx)
			onEU(t, e, "k")
			moved, err := e.Head(ctx, "c", "free")
			if err != nil || moved.UUID == control.UUID {
				t.Fatalf("the unpinned control stayed on %v (%v); the event should move it", moved.Chunks, err)
			}
			if moved.Rule != nil {
				t.Fatalf("the control's migration pinned %+v", moved.Rule)
			}
		}},
		{"multipart", func(t *testing.T, b *Broker, _ *SimClock) {
			e := b.Engine(0)
			up, err := e.CreateUpload(ctx, "c", "k", 0, PutOptions{Rule: &eu})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.UploadPart(ctx, up.UploadID, 1, bytes.NewReader(make([]byte, 4<<10)), 4<<10); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CompleteUpload(ctx, up.UploadID, []CompletedPart{{PartNumber: 1}}); err != nil {
				t.Fatal(err)
			}
			onEU(t, e, "k")
			repairSkips(t, b, "k")
		}},
		{"overwrite", func(t *testing.T, b *Broker, _ *SimClock) {
			e := b.Engine(0)
			wide := core.PaperRules()[2] // Rule 3: five providers at least
			if err := b.SetContainerRule("c", wide); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Put(ctx, "c", "k", make([]byte, 4<<10), PutOptions{Rule: &eu}); err != nil {
				t.Fatal(err)
			}
			onEU(t, e, "k")
			meta, err := e.Put(ctx, "c", "k", make([]byte, 4<<10), PutOptions{})
			if err != nil {
				t.Fatal(err)
			}
			head, err := e.Head(ctx, "c", "k")
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []ObjectMeta{meta, head} {
				if m.Rule != nil || m.RuleName != wide.Name || len(m.Chunks) < wide.MinProviders() {
					t.Fatalf("the overwrite kept rule %+v, is %q on %v; want the container's %q", m.Rule, m.RuleName, m.Chunks, wide.Name)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewSimClock()
			b := newTestBroker(t, Config{Clock: clock, MigrationHorizon: 24 * 180})
			tc.run(t, b, clock)
		})
	}
}
