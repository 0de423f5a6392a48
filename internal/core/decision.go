package core

import "sync"

// DecisionController adapts an object's decision period D_obj — the span
// of historical access statistics used when recomputing its placement
// (paper §III-A). D is searched dichotomically: every T optimization
// rounds the engine evaluates the candidate windows D/2, D and 2D in
// parallel ("coupling") and keeps the one whose best provider set prices
// cheapest. When D is found adequate (the middle candidate wins), T
// doubles; otherwise T resets to 1. T is capped so D is revisited at
// least every maxT rounds (the paper bounds it at "a period of weeks").
// It is safe for concurrent use: a background re-plan and a write pricing
// its load may reach one object's controller together.
type DecisionController struct {
	mu   sync.Mutex
	d    int // current decision period, in sampling periods
	t    int // rounds between evaluations
	left int // rounds until the next evaluation
	maxT int
}

// Default decision-period controller parameters.
const (
	DefaultDecisionPeriod = 24  // 1 day at hourly sampling
	DefaultMaxT           = 336 // 2 weeks of hourly optimization rounds
	MinDecisionPeriod     = 1
)

// NewDecisionController returns a controller starting at initialD
// sampling periods with T = 1 (evaluate at the first opportunity).
func NewDecisionController(initialD, maxT int) *DecisionController {
	if initialD < MinDecisionPeriod {
		initialD = DefaultDecisionPeriod
	}
	if maxT < 1 {
		maxT = DefaultMaxT
	}
	return &DecisionController{d: initialD, t: 1, left: 1, maxT: maxT}
}

// D returns the current decision period.
func (c *DecisionController) D() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.d
}

// T returns the current evaluation interval.
func (c *DecisionController) T() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Tick marks one optimization round and reports whether this round must
// run the three-window coupling evaluation.
func (c *DecisionController) Tick() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left <= 0 {
		c.left = c.t
		return true
	}
	return false
}

// Candidates returns the coupling windows {D/2, D, 2D}, clamped to
// [MinDecisionPeriod, limit]. limit is the paper's dichotomic-search
// bound min(TTL_obj, |H_obj|); pass limit <= 0 for no bound.
func (c *DecisionController) Candidates(limit int) [3]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	half := c.d / 2
	if half < MinDecisionPeriod {
		half = MinDecisionPeriod
	}
	double := c.d * 2
	cands := [3]int{half, c.d, double}
	if limit > 0 {
		for i := range cands {
			if cands[i] > limit {
				cands[i] = limit
			}
			if cands[i] < MinDecisionPeriod {
				cands[i] = MinDecisionPeriod
			}
		}
	}
	return cands
}

// Update records which candidate window (0 = D/2, 1 = D, 2 = 2D) priced
// cheapest. Keeping the middle window means D was adequate: T doubles.
// Any change of D resets T to 1 so the new value is re-examined soon.
func (c *DecisionController) Update(bestIdx int, candidates [3]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case bestIdx == 1 || candidates[bestIdx] == c.d:
		c.t *= 2
		if c.t > c.maxT {
			c.t = c.maxT
		}
	default:
		c.d = candidates[bestIdx]
		c.t = 1
	}
	c.left = c.t
}
