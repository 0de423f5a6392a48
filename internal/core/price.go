package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"scalia/internal/cloud"
	"scalia/internal/stats"
)

// Placement is a chosen provider set together with the erasure threshold
// m: the object is split into n = len(Providers) chunks, any m of which
// reconstruct it.
type Placement struct {
	Providers []cloud.Spec
	M         int
}

// N returns the number of chunks (= providers).
func (p Placement) N() int { return len(p.Providers) }

// Names returns the provider names, sorted.
func (p Placement) Names() []string {
	out := make([]string, len(p.Providers))
	for i, s := range p.Providers {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// String renders the paper's notation, e.g. "[S3(h), S3(l); m:1]".
func (p Placement) String() string {
	return fmt.Sprintf("[%s; m:%d]", strings.Join(p.Names(), ", "), p.M)
}

// Equal reports whether two placements use the same provider names and
// threshold. A placement names each provider once.
func (p Placement) Equal(other Placement) bool {
	if p.M != other.M || len(p.Providers) != len(other.Providers) {
		return false
	}
	for _, s := range p.Providers {
		if !other.Has(s.Name) {
			return false
		}
	}
	return true
}

// Has reports whether the placement includes the named provider.
func (p Placement) Has(name string) bool {
	for _, s := range p.Providers {
		if s.Name == name {
			return true
		}
	}
	return false
}

// nextMoved returns the provider of p that other lacks whose name comes
// next after the name after (the first, when first is set), if any.
func (p Placement) nextMoved(other Placement, after string, first bool) (next cloud.Spec, ok bool) {
	for _, s := range p.Providers {
		if (first || s.Name > after) && (!ok || s.Name < next.Name) && !other.Has(s.Name) {
			next, ok = s, true
		}
	}
	return next, ok
}

// ChunkGB returns the per-chunk size in GB for an object of the given
// logical size.
func (p Placement) ChunkGB(storageGB float64) float64 {
	if p.M <= 0 {
		return 0
	}
	return storageGB / float64(p.M)
}

// PeriodCost implements computePrice (Algorithm 1, line 11): the
// expected USD cost of one sampling period on placement p for an object
// with the given per-period average load.
//
// Cost model, per the paper's billing dimensions:
//   - storage: each provider holds one chunk of size/m for the period;
//   - writes: every write uploads all n chunks (bandwidth-in at each
//     provider, one PUT operation each);
//   - reads: every read downloads m chunks from the cheapest m providers
//     of the set, ranked by marginal read cost (bandwidth-out price plus
//     per-operation price) — "retrieves the m out of |P(obj)| chunks from
//     the cheapest providers" (§III-D2);
//   - deletes: one DELETE operation per provider.
func PeriodCost(p Placement, load stats.Summary, periodHours float64) float64 {
	if p.M <= 0 || p.N() == 0 {
		return 0
	}
	if periodHours <= 0 {
		periodHours = 1
	}
	m := float64(p.M)
	storageGB := load.StorageBytes / 1e9
	chunkGB := storageGB / m
	bytesInGB := load.BytesIn / 1e9 / m   // per-provider upload share
	bytesOutGB := load.BytesOut / 1e9 / m // per-serving-provider share

	var cost float64

	// Storage and write path: all n providers participate.
	for _, s := range p.Providers {
		cost += chunkGB * s.Pricing.StorageGBMonth * periodHours / cloud.HoursPerMonth
		cost += bytesInGB * s.Pricing.BandwidthInGB
		cost += load.Writes * s.Pricing.OpsPer1000 / 1000
	}

	// Read path: the m cheapest providers serve chunks. Markets are
	// small (|P| < 15 per the paper), so a fixed-size stack buffer
	// avoids a heap allocation on this per-candidate hot path.
	if load.Reads > 0 && load.BytesOut >= 0 {
		var buf [16]float64
		costs := buf[:0]
		if p.N() > len(buf) {
			costs = make([]float64, 0, p.N())
		}
		for _, s := range p.Providers {
			costs = append(costs, bytesOutGB*s.Pricing.BandwidthOutGB+load.Reads*s.Pricing.OpsPer1000/1000)
		}
		sort.Float64s(costs)
		for i := 0; i < p.M; i++ {
			cost += costs[i]
		}
	}
	return cost
}

// MigrationCost estimates the one-off USD cost of moving an object of
// the given logical size from placement `from` to placement `to`
// (§III-A3: migration happens only "if the cost of migration is covered
// by the benefits"):
//   - if threshold and chunk count are unchanged, moved chunks keep
//     their stripe identity and are copied provider-to-provider (§IV-E:
//     "if m is the same, then only the faulty chunk needs to be
//     written, which corresponds to the cheapest case");
//   - otherwise the object is reconstructed by reading m chunks from the
//     cheapest source providers, re-striped, and fully rewritten.
//
// Chunks abandoned at providers leaving the set cost one DELETE each.
func MigrationCost(from, to Placement, storageGB float64) float64 {
	if from.M <= 0 || to.M <= 0 {
		return 0
	}
	// Cheapest case (§IV-E): threshold and chunk count unchanged, so a
	// chunk keeps its stripe identity and moves by a direct copy from the
	// leaving provider to the incoming one — no reconstruction.
	if from.M == to.M && from.N() == to.N() {
		// The i-th leaving provider by name sends to the i-th incoming.
		chunkGB := from.ChunkGB(storageGB)
		var cost float64
		var src, dst cloud.Spec
		for first := true; ; first = false {
			var ok bool
			if dst, ok = to.nextMoved(from, dst.Name, first); !ok {
				break
			}
			src, _ = from.nextMoved(to, src.Name, first)
			cost += chunkGB*src.Pricing.BandwidthOutGB + src.Pricing.OpsPer1000/1000 // read
			cost += chunkGB*dst.Pricing.BandwidthInGB + dst.Pricing.OpsPer1000/1000  // write
			cost += src.Pricing.OpsPer1000 / 1000                                    // delete
		}
		return cost
	}

	// Re-stripe: reconstruct from m chunks, rewrite everything, delete all
	// old chunks.
	var cost float64
	chunkGB := from.ChunkGB(storageGB)
	reads := make([]float64, 0, 16) // on the stack up to 16 providers
	for _, s := range from.Providers {
		reads = append(reads, chunkGB*s.Pricing.BandwidthOutGB+s.Pricing.OpsPer1000/1000)
	}
	slices.Sort(reads)
	for i := 0; i < from.M && i < len(reads); i++ {
		cost += reads[i]
	}
	newChunkGB := to.ChunkGB(storageGB)
	for _, s := range to.Providers {
		cost += newChunkGB*s.Pricing.BandwidthInGB + s.Pricing.OpsPer1000/1000
	}
	for _, s := range from.Providers {
		cost += s.Pricing.OpsPer1000 / 1000
	}
	return cost
}
