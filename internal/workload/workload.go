// Package workload generates the access patterns of the paper's
// evaluation (§IV): the Slashdot flash-crowd, the Pareto-popularity
// picture gallery driven by a diurnal three-region website trace, the
// periodic 40 MB backup stream of the provider-addition and active-
// repair experiments, and the website read series behind the trend-
// detection figures.
//
// The real website trace is private; the paper describes it only in
// aggregate (about 2500 visitors/day; Europe 62%, North America 27%,
// Asia 6%). Website synthesizes a deterministic diurnal mixture with
// those shares, which preserves the property the experiments rely on: a
// strong daily cycle with regional phase shifts.
package workload

import (
	"fmt"
	"math"
)

// PeriodLoad is one object's load during one sampling period.
type PeriodLoad struct {
	Object string
	Size   int64
	Reads  int64
	// Writes counts object writes in the period (1 on creation/update).
	Writes int64
	// Created marks the object's first write.
	Created bool
	// Deleted marks removal at the end of the period.
	Deleted bool
}

// Scenario produces per-period loads.
type Scenario interface {
	// Name labels the scenario in reports.
	Name() string
	// Periods is the scenario length in sampling periods.
	Periods() int
	// Load returns the loads of period p (0-based).
	Load(p int) []PeriodLoad
}

// --- Slashdot effect (§IV-B, Figs. 12 and 14) ---

// Slashdot is the flash-crowd scenario: a single 1 MB object, written at
// hour 0; after 2 days reads ramp from 0 to PeakReads within 3 hours,
// then decay by DecayPerHour.
type Slashdot struct {
	ObjectName   string
	SizeBytes    int64
	TotalHours   int
	QuietHours   int
	RampHours    int
	PeakReads    int64
	DecayPerHour int64
}

// NewSlashdot returns the paper's parameterization: 1 MB, 180 hours
// (7.5 days), spike at hour 48 reaching 150 reads/hour in 3 hours, then
// -2 reads/hour.
func NewSlashdot() *Slashdot {
	return &Slashdot{
		ObjectName:   "web/page",
		SizeBytes:    1 << 20,
		TotalHours:   180,
		QuietHours:   48,
		RampHours:    3,
		PeakReads:    150,
		DecayPerHour: 2,
	}
}

// Name implements Scenario.
func (s *Slashdot) Name() string { return "slashdot" }

// Periods implements Scenario.
func (s *Slashdot) Periods() int { return s.TotalHours }

// ReadsAt returns the read count of hour p.
func (s *Slashdot) ReadsAt(p int) int64 {
	switch {
	case p < s.QuietHours:
		return 0
	case p < s.QuietHours+s.RampHours:
		// Linear ramp 0 -> PeakReads over RampHours.
		return s.PeakReads * int64(p-s.QuietHours+1) / int64(s.RampHours)
	default:
		r := s.PeakReads - s.DecayPerHour*int64(p-s.QuietHours-s.RampHours+1)
		if r < 0 {
			r = 0
		}
		return r
	}
}

// Load implements Scenario.
func (s *Slashdot) Load(p int) []PeriodLoad {
	load := PeriodLoad{Object: s.ObjectName, Size: s.SizeBytes}
	if p == 0 {
		load.Writes = 1
		load.Created = true
	}
	load.Reads = s.ReadsAt(p)
	return []PeriodLoad{load}
}

// --- Website diurnal trace (Figs. 8, 9; drives the gallery) ---

// Website synthesizes the daily access pattern of the paper's reference
// website: VisitorsPerDay requests spread over three regional diurnal
// curves with the paper's regional shares.
type Website struct {
	VisitorsPerDay float64
	// Share and UTC peak hour per region {EU, NA, AS}.
	Shares [3]float64
	Peaks  [3]float64
}

// NewWebsite returns the paper's aggregate parameters.
func NewWebsite() *Website {
	return &Website{
		VisitorsPerDay: 2500,
		Shares:         [3]float64{0.62, 0.27, 0.06},
		Peaks:          [3]float64{13, 20, 6}, // UTC afternoon peaks per region
	}
}

// RateAt returns the expected requests during hour h (continuous hours
// since the trace start; fractional values sample within the hour).
func (w *Website) RateAt(h float64) float64 {
	hourOfDay := math.Mod(h, 24)
	var rate float64
	for i := range w.Shares {
		// A raised cosine peaked at the regional peak hour, mixed with a
		// constant floor (real sites never go fully quiet): non-negative
		// and integrating to 1 over the day.
		phase := 2 * math.Pi * (hourOfDay - w.Peaks[i]) / 24
		density := (0.35 + 0.65*(1+math.Cos(phase))) / 24
		rate += w.VisitorsPerDay * w.Shares[i] * density
	}
	// The paper's regional shares sum to 0.95; the remaining 5% (rest of
	// world) arrives uniformly around the clock.
	var regional float64
	for _, s := range w.Shares {
		regional += s
	}
	rate += w.VisitorsPerDay * (1 - regional) / 24
	return rate
}

// HourlySeries returns `hours` integer samples of the request rate.
func (w *Website) HourlySeries(hours int) []float64 {
	out := make([]float64, hours)
	for h := range out {
		out[h] = w.RateAt(float64(h))
	}
	return out
}

// DailySeries aggregates the trace into daily totals for `days` days,
// with a weekly modulation (weekends ~25% quieter) and occasional
// multi-day traffic bursts, so the daily series has the structure the
// paper's 3-month Fig. 9 trace shows (quiet weeks punctuated by peaks).
func (w *Website) DailySeries(days int) []float64 {
	out := make([]float64, days)
	for d := range out {
		total := 0.0
		for h := 0; h < 24; h++ {
			total += w.RateAt(float64(d*24 + h))
		}
		if wd := d % 7; wd == 5 || wd == 6 {
			total *= 0.75
		}
		// A one-day spike every three weeks (content going viral,
		// newsletter, campaign): x3 traffic, decaying the following day.
		switch d % 21 {
		case 9:
			total *= 3
		case 10:
			total *= 1.8
		}
		out[d] = total
	}
	return out
}

// --- Gallery (§IV-C, Figs. 15 and 16) ---

// Gallery is the picture-gallery scenario: PictureCount pictures of
// PictureBytes each, read following the website's daily pattern with
// popularity following a Pareto distribution across pictures.
type Gallery struct {
	PictureCount int
	PictureBytes int64
	TotalHours   int
	Site         *Website
	// ParetoShape is the popularity tail index (the paper's
	// "Pareto (1,50)" distribution, scale 1).
	ParetoShape float64

	weights []float64
}

// NewGallery returns the paper's parameterization: 200 pictures of
// 250 KB over 7.5 days.
func NewGallery() *Gallery {
	g := &Gallery{
		PictureCount: 200,
		PictureBytes: 250 << 10,
		TotalHours:   180,
		Site:         NewWebsite(),
		// The paper's "Pareto (1,50)" parameterization is ambiguous; what
		// its results require is a tail of pictures with near-zero reads
		// (they settle on the storage-optimal m:3 set) under a handful of
		// dominant pictures (m:1). Shape 0.5 (rank weights ~ rank^-2)
		// produces exactly that tiering.
		ParetoShape: 0.5,
	}
	g.computeWeights()
	return g
}

// computeWeights assigns each picture a popularity share via the
// rank-size rule for a Pareto(scale=1, shape=a) population:
// weight ~ rank^(-1/a), normalized to sum to 1.
func (g *Gallery) computeWeights() {
	g.weights = ZipfWeights(g.PictureCount, 1/g.ParetoShape)
}

// Name implements Scenario.
func (g *Gallery) Name() string { return "gallery" }

// Periods implements Scenario.
func (g *Gallery) Periods() int { return g.TotalHours }

// PictureName returns the object key of picture i.
func (g *Gallery) PictureName(i int) string {
	return fmt.Sprintf("pictures/img%03d", i)
}

// Load implements Scenario: hour 0 uploads all pictures; every hour the
// site's request rate is split across pictures by popularity weight,
// rounding deterministically so aggregate volume is preserved.
func (g *Gallery) Load(p int) []PeriodLoad {
	rate := g.Site.RateAt(float64(p))
	loads := make([]PeriodLoad, 0, g.PictureCount)
	carry := 0.0
	for i := 0; i < g.PictureCount; i++ {
		load := PeriodLoad{
			Object: g.PictureName(i),
			Size:   g.PictureBytes,
			Reads:  roundCarry(rate*g.weights[i], &carry),
		}
		if p == 0 {
			load.Writes = 1
			load.Created = true
		}
		if load.Reads > 0 || load.Writes > 0 {
			loads = append(loads, load)
		}
	}
	return loads
}

// --- Backup stream (§IV-D and §IV-E, Figs. 17 and 18) ---

// Backup stores a new object of ObjectBytes every IntervalHours.
type Backup struct {
	ObjectBytes   int64
	IntervalHours int
	TotalHours    int
}

// NewBackup returns the paper's parameterization: 40 MB every 5 hours.
func NewBackup(totalHours int) *Backup {
	return &Backup{
		ObjectBytes:   40 << 20,
		IntervalHours: 5,
		TotalHours:    totalHours,
	}
}

// Name implements Scenario.
func (b *Backup) Name() string { return "backup" }

// Periods implements Scenario.
func (b *Backup) Periods() int { return b.TotalHours }

// ObjectName returns the key of the backup written at hour h.
func (b *Backup) ObjectName(h int) string {
	return fmt.Sprintf("backups/obj%05d", h)
}

// Load implements Scenario.
func (b *Backup) Load(p int) []PeriodLoad {
	var loads []PeriodLoad
	if p%b.IntervalHours == 0 {
		loads = append(loads, PeriodLoad{
			Object:  b.ObjectName(p),
			Size:    b.ObjectBytes,
			Writes:  1,
			Created: true,
		})
	}
	return loads
}
