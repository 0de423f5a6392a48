// Package sim is the cost simulator behind the paper's evaluation (§IV):
// it replays a workload scenario against (a) Scalia's adaptive placement,
// (b) all 26 static provider sets of Fig. 13, and (c) the per-period
// ideal placement, producing the over-cost comparisons of Figs. 14, 16
// and the resource/price series of Figs. 12, 15, 17 and 18.
package sim

import (
	"scalia/internal/cloud"
)

// CanonicalOrder is the provider order Fig. 13 enumerates subsets in.
var CanonicalOrder = []string{
	cloud.NameS3High, cloud.NameS3Low, cloud.NameAzure,
	cloud.NameGoogle, cloud.NameRackspace,
}

// StaticSet is one numbered provider subset from Fig. 13. Index runs
// 1..26; Scalia is plotted as 27.
type StaticSet struct {
	Index int
	Names []string
}

// Label renders the paper's hyphenated label, e.g. "S3(h)-S3(l)-Azu".
func (s StaticSet) Label() string {
	out := ""
	for i, n := range s.Names {
		if i > 0 {
			out += "-"
		}
		out += n
	}
	return out
}

// ScaliaIndex is the bar number the paper assigns to Scalia.
const ScaliaIndex = 27

// StaticSets enumerates the 26 subsets (size >= 2) of the five paper
// providers in Fig. 13's order: depth-first lexicographic extension over
// the canonical provider order.
func StaticSets() []StaticSet {
	var sets []StaticSet
	var emit func(prefix []int, next int)
	emit = func(prefix []int, next int) {
		if len(prefix) >= 2 {
			names := make([]string, len(prefix))
			for i, idx := range prefix {
				names[i] = CanonicalOrder[idx]
			}
			sets = append(sets, StaticSet{Index: len(sets) + 1, Names: names})
		}
		for i := next; i < len(CanonicalOrder); i++ {
			emit(append(prefix, i), i+1)
		}
	}
	for first := 0; first < len(CanonicalOrder); first++ {
		emit([]int{first}, first+1)
	}
	return sets
}
