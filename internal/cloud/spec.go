// Package cloud simulates the public cloud storage providers Scalia
// brokers across: S3-like blob stores with the paper's Fig. 3 pricing and
// SLA table, per-resource billing meters, capacity limits, chunk-size
// constraints, transient-failure injection, and a dynamic registry that
// supports provider arrival (the CheapStor experiment, §IV-D) and
// departure.
//
// The paper's evaluation is itself simulation-based: every reported
// quantity is a billed resource (GB stored, GB transferred in/out,
// operation counts) priced by the provider table. The simulated stores
// meter exactly those resources, so cost behaviour is preserved.
package cloud

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Zone is a coarse geographic region a provider stores data in.
type Zone string

// Zones used by the paper's provider table.
const (
	ZoneEU   Zone = "EU"
	ZoneUS   Zone = "US"
	ZoneAPAC Zone = "APAC"
)

// Pricing holds a provider's price sheet, in the units the paper uses:
// USD per GB for storage (per month) and bandwidth, USD per 1000 requests
// for operations.
type Pricing struct {
	StorageGBMonth float64 `json:"storageGBMonth"` // USD per GB-month stored
	BandwidthInGB  float64 `json:"bandwidthInGB"`  // USD per GB transferred in
	BandwidthOutGB float64 `json:"bandwidthOutGB"` // USD per GB transferred out
	OpsPer1000     float64 `json:"opsPer1000"`     // USD per 1000 operations
}

// HoursPerMonth converts GB-month storage prices to hourly accrual.
// The paper bills by sampling period (typically one hour).
const HoursPerMonth = 730.0

// Spec describes a storage provider: identity, SLA guarantees and prices.
type Spec struct {
	Name         string  `json:"name"`         // short label, e.g. "S3(h)"
	Description  string  `json:"description"`  // human-readable description
	Durability   float64 `json:"durability"`   // SLA durability as a probability, e.g. 0.99999999999
	Availability float64 `json:"availability"` // SLA availability as a probability, e.g. 0.999
	Zones        []Zone  `json:"zones,omitempty"`
	Pricing      Pricing `json:"pricing"`
	// MaxChunkBytes, when non-zero, is the provider's maximum object size.
	// Algorithm 1 handles constrained providers by comparing the
	// include-vs-exclude alternatives (paper §III-A2).
	MaxChunkBytes int64 `json:"maxChunkBytes,omitempty"`
	// CapacityBytes, when non-zero, bounds total stored bytes; used for
	// private storage resources (§III-E) which "never grow beyond the
	// limit set in the properties of the resource".
	CapacityBytes int64 `json:"capacityBytes,omitempty"`
	// Private marks corporate-owned resources registered through the
	// private storage web service.
	Private bool `json:"private,omitempty"`
}

// Validate reports a price that is negative or not finite: the placement
// search's branch-and-bound cost floor is a lower bound only for
// non-negative prices.
func (p Pricing) Validate() error {
	for _, f := range []struct {
		name string
		usd  float64
	}{{"storageGBMonth", p.StorageGBMonth}, {"bandwidthInGB", p.BandwidthInGB},
		{"bandwidthOutGB", p.BandwidthOutGB}, {"opsPer1000", p.OpsPer1000}} {
		if !(f.usd >= 0) || math.IsInf(f.usd, 1) {
			return fmt.Errorf("cloud: price %s = %v is not a finite, non-negative number", f.name, f.usd)
		}
	}
	return nil
}

// Validate reports a spec the planner cannot plan with: no name, an SLA
// probability outside [0, 1], a negative size bound or an invalid price.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("cloud: provider name is required")
	case !(s.Durability >= 0 && s.Durability <= 1):
		return fmt.Errorf("cloud: provider %s: durability %v is not in [0, 1]", s.Name, s.Durability)
	case !(s.Availability >= 0 && s.Availability <= 1):
		return fmt.Errorf("cloud: provider %s: availability %v is not in [0, 1]", s.Name, s.Availability)
	case s.MaxChunkBytes < 0 || s.CapacityBytes < 0:
		return fmt.Errorf("cloud: provider %s: maxChunkBytes %d and capacityBytes %d must not be negative",
			s.Name, s.MaxChunkBytes, s.CapacityBytes)
	}
	return s.Pricing.Validate()
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	zones := make([]string, len(s.Zones))
	for i, z := range s.Zones {
		zones[i] = string(z)
	}
	return fmt.Sprintf("%s[dur=%.10g av=%.4g zones=%s]",
		s.Name, s.Durability, s.Availability, strings.Join(zones, ","))
}

// HasZone reports whether the provider serves zone z.
func (s Spec) HasZone(z Zone) bool {
	for _, have := range s.Zones {
		if have == z {
			return true
		}
	}
	return false
}

// ServesAny reports whether the provider serves at least one of the
// requested zones. An empty request means "all zones acceptable".
func (s Spec) ServesAny(zones []Zone) bool {
	if len(zones) == 0 {
		return true
	}
	for _, z := range zones {
		if s.HasZone(z) {
			return true
		}
	}
	return false
}

// Paper provider names (Fig. 3).
const (
	NameS3High    = "S3(h)"
	NameS3Low     = "S3(l)"
	NameRackspace = "RS"
	NameAzure     = "Azu"
	NameGoogle    = "Ggl"
	NameCheapStor = "CheapStor"
)

// PaperProviders returns the five provider profiles of Fig. 3, in the
// paper's row order.
func PaperProviders() []Spec {
	return []Spec{
		{
			Name:         NameS3High,
			Description:  "Amazon S3 (High)",
			Durability:   0.99999999999,
			Availability: 0.999,
			Zones:        []Zone{ZoneEU, ZoneUS, ZoneAPAC},
			Pricing:      Pricing{StorageGBMonth: 0.14, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		},
		{
			Name:         NameS3Low,
			Description:  "Amazon S3 (Low)",
			Durability:   0.9999,
			Availability: 0.999,
			Zones:        []Zone{ZoneEU, ZoneUS, ZoneAPAC},
			Pricing:      Pricing{StorageGBMonth: 0.093, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		},
		{
			Name:         NameRackspace,
			Description:  "Rackspace CloudFiles",
			Durability:   0.999999,
			Availability: 0.999,
			Zones:        []Zone{ZoneUS},
			Pricing:      Pricing{StorageGBMonth: 0.15, BandwidthInGB: 0.08, BandwidthOutGB: 0.18, OpsPer1000: 0.0},
		},
		{
			Name:         NameAzure,
			Description:  "Microsoft Azure",
			Durability:   0.999999,
			Availability: 0.999,
			Zones:        []Zone{ZoneUS},
			Pricing:      Pricing{StorageGBMonth: 0.15, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		},
		{
			Name:         NameGoogle,
			Description:  "Google Storage",
			Durability:   0.999999,
			Availability: 0.999,
			Zones:        []Zone{ZoneUS},
			Pricing:      Pricing{StorageGBMonth: 0.17, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
		},
	}
}

// CheapStorProvider returns the provider that arrives at hour 400 in the
// §IV-D experiment: 0.09$/GB storage, 0.1$/GB in, 0.15$/GB out, 0.01$/1K
// operations.
func CheapStorProvider() Spec {
	return Spec{
		Name:         NameCheapStor,
		Description:  "CheapStor (arrives mid-experiment)",
		Durability:   0.999999,
		Availability: 0.999,
		Zones:        []Zone{ZoneUS},
		Pricing:      Pricing{StorageGBMonth: 0.09, BandwidthInGB: 0.1, BandwidthOutGB: 0.15, OpsPer1000: 0.01},
	}
}
