package engine

import (
	"sync"

	"scalia/internal/core"
)

// RuleStore resolves the placement rule for an object, in the paper's
// precedence order (§II-B): a per-object rule, then a per-container
// rule, then the default rule (the paper's per-class rule has no setter
// in the API, so nothing here keeps one). The per-object
// rule is not kept here: a write pins it (PutOptions.Rule) and its
// version keeps it in the metadata row (ObjectMeta.Rule, the policy of
// Fig. 11), whence every re-plan passes it back to Resolve.
type RuleStore struct {
	mu          sync.RWMutex
	def         core.Rule
	byContainer map[string]core.Rule
}

// DefaultRule is used when the customer sets nothing: two providers
// minimum is implied by the availability requirement.
var DefaultRule = core.Rule{
	Name:         "default",
	Durability:   0.99999,
	Availability: 0.9999,
	LockIn:       1,
}

// NewRuleStore returns a store with the given default rule (zero value
// selects DefaultRule).
func NewRuleStore(def core.Rule) *RuleStore {
	if def.LockIn == 0 {
		def = DefaultRule
	}
	return &RuleStore{
		def:         def,
		byContainer: make(map[string]core.Rule),
	}
}

// SetDefault replaces the default rule.
func (rs *RuleStore) SetDefault(r core.Rule) {
	rs.mu.Lock()
	rs.def = r
	rs.mu.Unlock()
}

// SetContainerRule pins a rule to every object of a container.
func (rs *RuleStore) SetContainerRule(container string, r core.Rule) {
	rs.mu.Lock()
	rs.byContainer[container] = r
	rs.mu.Unlock()
}

// Resolve returns the rule governing an object of the container whose
// version pins the rule pinned (nil = none).
func (rs *RuleStore) Resolve(container string, pinned *core.Rule) core.Rule {
	if pinned != nil {
		return *pinned
	}
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	if r, ok := rs.byContainer[container]; ok {
		return r
	}
	return rs.def
}
