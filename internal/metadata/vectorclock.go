// Package metadata implements Scalia's database layer (paper §III-C): a
// from-scratch multi-master NoSQL key-value store with multi-version
// concurrency control, vector-clock conflict detection (the paper's
// "anti-entropy mechanisms such as vector clocks"), latest-timestamp
// conflict resolution (§III-D), tombstoned deletes, and multi-datacenter
// replication with partition tolerance.
package metadata

// Ordering is the result of comparing two vector clocks.
type Ordering int

// Vector clock orderings.
const (
	Equal Ordering = iota
	Before
	After
	Concurrent
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "concurrent"
	}
}

// VectorClock maps node identifiers to event counters, establishing a
// partial causal order over versions written at different datacenters.
type VectorClock map[string]uint64

// Clone returns an independent copy.
func (vc VectorClock) Clone() VectorClock {
	out := make(VectorClock, len(vc))
	for k, v := range vc {
		out[k] = v
	}
	return out
}

// Tick increments node's counter and returns the clock for chaining.
func (vc VectorClock) Tick(node string) VectorClock {
	vc[node]++
	return vc
}

// Merge folds other into vc taking the element-wise maximum.
func (vc VectorClock) Merge(other VectorClock) VectorClock {
	for k, v := range other {
		if v > vc[k] {
			vc[k] = v
		}
	}
	return vc
}

// Compare returns the causal relation of vc to other.
func (vc VectorClock) Compare(other VectorClock) Ordering {
	less, greater := false, false
	for k, v := range vc {
		o := other[k]
		if v < o {
			less = true
		} else if v > o {
			greater = true
		}
	}
	for k, o := range other {
		if _, ok := vc[k]; !ok && o > 0 {
			less = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}
