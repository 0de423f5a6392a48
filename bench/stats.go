package main

import (
	"math"
	"sort"
)

// percentile returns the exact order statistic at quantile q (0 < q <=
// 1) of sorted: the smallest sample with at least q of the samples at
// or below it. No interpolation, no buckets. NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 order statistic of xs (unsorted input).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// highestSupported picks the highest of p50/p90/p99/p99.9 that still
// has at least ten samples beyond it, so the reported tail is an order
// statistic the sample can support. With fewer than 100 samples that is
// the median.
func highestSupported(n int) float64 {
	best := 0.5
	for _, oneIn := range []int{10, 100, 1000} { // the tail beyond p90 is 1 in 10, ...
		if n/oneIn >= 10 {
			best = 1 - 1/float64(oneIn)
		}
	}
	return best
}

// sliceRate splits [0, window) into k equal slices and returns the
// median per-slice completion rate in 1/s, so one noisy slice cannot
// move it. An op counts toward each slice by the share of its own
// duration [start, end) (seconds) spent there: the rate is continuous
// instead of stepping by whole ops, and an op that straddles the end
// of the window counts only for the part inside.
func sliceRate(start, end []float64, window float64, k int) float64 {
	if k <= 0 || window <= 0 {
		return math.NaN()
	}
	width := window / float64(k)
	done := make([]float64, k)
	for i := range start {
		s, e := start[i], end[i]
		if e <= s {
			if j := int(e / width); j >= 0 && j < k {
				done[j]++
			}
			continue
		}
		for j := int(math.Max(s, 0) / width); j < k && float64(j)*width < e; j++ {
			lo, hi := math.Max(s, float64(j)*width), math.Min(e, float64(j+1)*width)
			done[j] += (hi - lo) / (e - s)
		}
	}
	for j := range done {
		done[j] /= width
	}
	return median(done)
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) len() int64 {
	if iv.end <= iv.start {
		return 0
	}
	return iv.end - iv.start
}

// unionLen returns the total length covered by at least one interval.
// Zero-length and inverted intervals cover nothing. ivs is reordered.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curEnd int64
	started := false
	for _, iv := range ivs {
		if iv.len() == 0 {
			continue
		}
		switch {
		case !started || iv.start > curEnd:
			total += iv.len()
			curEnd = iv.end
			started = true
		case iv.end > curEnd:
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover: children are clipped to the parent first, so a child that
// starts early or ends late cannot push self time below zero.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return parent.len() - unionLen(clipped)
}

// maxOverlap is the largest number of intervals open at one instant.
func maxOverlap(ivs []interval) int {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.len() == 0 {
			continue
		}
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	// Ends sort before starts at the same instant: touching intervals
	// do not overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, best := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of its median, with the quartiles computed as
// Python's statistics.quantiles(xs, n=4) does (exclusive method) — the
// acceptance rule the benchmark's bounds are held to. Needs >= 2
// values.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return math.NaN()
	}
	return (q(3) - q(1)) / math.Abs(med)
}
