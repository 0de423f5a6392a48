package workload

import (
	"fmt"
	"math"
)

// Combinators compose existing scenarios into new ones. Like the
// generators, every derived Load(p) is a pure function of p, so
// combined scenarios replay identically across the simulator's priced
// policies.

// prefixed namespaces a scenario's object keys so multi-part
// combinations never collide (mixing a scenario with itself is legal).
type prefixed struct {
	Scenario
	prefix string
}

func (s prefixed) Load(p int) []PeriodLoad {
	loads := s.Scenario.Load(p)
	out := make([]PeriodLoad, len(loads))
	for i, l := range loads {
		l.Object = s.prefix + l.Object
		out[i] = l
	}
	return out
}

// Mix runs all parts concurrently: period p carries every part's loads
// for p, each part's objects under its own key prefix. The mix lasts as
// long as the longest part.
func Mix(parts ...Scenario) Scenario {
	return &mix{parts: namespaced(parts)}
}

type mix struct {
	parts []Scenario
}

func (m *mix) Name() string { return "mix(" + partNames(m.parts) + ")" }

func (m *mix) Periods() int {
	max := 0
	for _, s := range m.parts {
		if s.Periods() > max {
			max = s.Periods()
		}
	}
	return max
}

func (m *mix) Load(p int) []PeriodLoad {
	var loads []PeriodLoad
	for _, s := range m.parts {
		if p < s.Periods() {
			loads = append(loads, s.Load(p)...)
		}
	}
	return loads
}

// Concat runs the parts back to back: part k starts the period part k-1
// ends. Parts are namespaced, so concatenating a scenario with itself
// creates fresh objects; objects a part leaves alive at its end simply
// stop receiving traffic (they keep accruing storage downstream).
func Concat(parts ...Scenario) Scenario {
	return &concat{parts: namespaced(parts)}
}

type concat struct {
	parts []Scenario
}

func (c *concat) Name() string { return "concat(" + partNames(c.parts) + ")" }

func (c *concat) Periods() int {
	total := 0
	for _, s := range c.parts {
		total += s.Periods()
	}
	return total
}

func (c *concat) Load(p int) []PeriodLoad {
	for _, s := range c.parts {
		if p < s.Periods() {
			return s.Load(p)
		}
		p -= s.Periods()
	}
	return nil
}

// Shift delays a scenario by `by` periods of silence (a cold start
// ahead of the action); the result is `by` periods longer.
func Shift(s Scenario, by int) Scenario {
	if by < 0 {
		by = 0
	}
	return &shift{inner: s, by: by}
}

type shift struct {
	inner Scenario
	by    int
}

func (s *shift) Name() string { return fmt.Sprintf("shift(%s,+%d)", s.inner.Name(), s.by) }

func (s *shift) Periods() int { return s.inner.Periods() + s.by }

func (s *shift) Load(p int) []PeriodLoad {
	if p < s.by {
		return nil
	}
	return s.inner.Load(p - s.by)
}

// Scale multiplies a scenario's read traffic by factor, rounding with a
// running carry across the period's loads so aggregate volume is
// preserved. Writes, sizes and lifecycle flags pass through unchanged
// (scaling creations would corrupt object lifecycles). Negative or NaN
// factors clamp to 0: reads cannot go negative.
func Scale(s Scenario, factor float64) Scenario {
	if factor < 0 || math.IsNaN(factor) {
		factor = 0
	}
	return &scale{inner: s, factor: factor}
}

type scale struct {
	inner  Scenario
	factor float64
}

func (s *scale) Name() string { return fmt.Sprintf("scale(%s,x%g)", s.inner.Name(), s.factor) }

func (s *scale) Periods() int { return s.inner.Periods() }

func (s *scale) Load(p int) []PeriodLoad {
	loads := s.inner.Load(p)
	out := make([]PeriodLoad, 0, len(loads))
	carry := 0.0
	for _, l := range loads {
		orig := l.Reads
		l.Reads = roundCarry(float64(l.Reads)*s.factor, &carry)
		// Elide a record only when scaling removed the one thing it
		// carried — traffic. Records the source emitted for other
		// reasons (lifecycle flags, storage-only presence) pass
		// through, so Scale(s, 1) is the identity.
		if l.Reads > 0 || l.Writes > 0 || l.Created || l.Deleted || orig == 0 {
			out = append(out, l)
		}
	}
	return out
}

// namespaced wraps each part under a "p<k>/" key prefix.
func namespaced(parts []Scenario) []Scenario {
	out := make([]Scenario, len(parts))
	for i, s := range parts {
		out[i] = prefixed{Scenario: s, prefix: fmt.Sprintf("p%d/", i)}
	}
	return out
}

func partNames(parts []Scenario) string {
	names := ""
	for i, s := range parts {
		if i > 0 {
			names += "+"
		}
		names += s.Name()
	}
	return names
}
