package core

import "scalia/internal/cloud"

// Options tunes the placement search.
type Options struct {
	// PeriodHours is the sampling-period duration (default 1).
	PeriodHours float64
}

// Result is the outcome of a placement search.
type Result struct {
	Placement Placement
	// Price is the expected cost per sampling period (USD).
	Price    float64
	Feasible bool
	// Evaluated counts candidate sets examined (ablation metric).
	Evaluated int
}

// tieBreak makes the search deterministic when two sets price equally:
// prefer fewer providers (less operational surface), then lexicographic
// name order.
func tieBreak(a, b Placement) bool {
	if a.N() != b.N() {
		return a.N() < b.N()
	}
	an, bn := a.Names(), b.Names()
	for i := range an {
		if an[i] != bn[i] {
			return an[i] < bn[i]
		}
	}
	return false
}

// chunkFits checks the chunk-size and capacity constraints (§III-A2)
// for a candidate set at threshold m: the chunk size is
// ceil(objectBytes/m); a provider whose MaxChunkBytes or remaining free
// capacity cannot hold it makes the set infeasible. objectBytes == 0
// skips the checks.
func chunkFits(pset []cloud.Spec, m int, objectBytes int64, free map[string]int64) bool {
	if objectBytes <= 0 || m <= 0 {
		return true
	}
	chunk := (objectBytes + int64(m) - 1) / int64(m)
	for _, s := range pset {
		if s.MaxChunkBytes > 0 && chunk > s.MaxChunkBytes {
			return false
		}
		if free != nil {
			if f, ok := free[s.Name]; ok && chunk > f {
				return false
			}
		}
	}
	return true
}
