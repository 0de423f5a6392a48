// Package stats implements Scalia's access-statistics layer (paper
// §III-C2): per-object access histories aggregated over sampling periods,
// object classes keyed by MD5(mime | discretized size), per-class
// resource and lifetime distributions (Fig. 5/6). The paper's log
// agents and aggregators move request logs between processes; here every
// engine shares the process, so it applies the request it served to the
// statistics database directly (DB.Apply).
package stats

import "fmt"

// Sample aggregates one object's access statistics over one sampling
// period s_i: the used storage s_i[storage], incoming bandwidth
// s_i[bwdin], outgoing bandwidth s_i[bwdout] and the number of operations
// s_i[ops] (paper §III-A2). All byte quantities are logical object bytes;
// chunk expansion is applied by the pricing code for a candidate
// placement.
type Sample struct {
	Period       int64 // sampling-period index
	Reads        int64 // read operations on the object
	Writes       int64 // write (put/update) operations
	Deletes      int64 // delete operations
	BytesOut     int64 // logical bytes served to clients
	BytesIn      int64 // logical bytes written by clients
	StorageBytes int64 // logical bytes held during the period
}

// Ops returns the total operation count of the period.
func (s Sample) Ops() int64 { return s.Reads + s.Writes + s.Deletes }

// Merge folds another sample for the same period into s. StorageBytes
// takes the maximum, since it is a gauge rather than a counter.
func (s *Sample) Merge(other Sample) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Deletes += other.Deletes
	s.BytesOut += other.BytesOut
	s.BytesIn += other.BytesIn
	if other.StorageBytes > s.StorageBytes {
		s.StorageBytes = other.StorageBytes
	}
}

// String implements fmt.Stringer.
func (s Sample) String() string {
	return fmt.Sprintf("s[%d]{r=%d w=%d d=%d out=%dB in=%dB st=%dB}",
		s.Period, s.Reads, s.Writes, s.Deletes, s.BytesOut, s.BytesIn, s.StorageBytes)
}

// Summary is the aggregate of a window of samples, used by the placement
// engine to price candidate provider sets. Per-period averages keep the
// price comparison independent of window length.
type Summary struct {
	Periods      int     // number of sampling periods aggregated
	Reads        float64 // average reads per period
	Writes       float64 // average writes per period
	BytesOut     float64 // average logical bytes served per period
	BytesIn      float64 // average logical bytes written per period
	StorageBytes float64 // average logical bytes stored
}

// summer is a window's running sum, fed one sample at a time (History.Summary).
type summer struct {
	sum                     Summary
	samples, storagePeriods int
}

func (a *summer) add(s Sample) {
	a.samples++
	a.sum.Reads += float64(s.Reads)
	a.sum.Writes += float64(s.Writes)
	a.sum.BytesOut += float64(s.BytesOut)
	a.sum.BytesIn += float64(s.BytesIn)
	if s.StorageBytes > 0 {
		a.sum.StorageBytes += float64(s.StorageBytes)
		a.storagePeriods++
	}
}

// summary averages the sum over total periods: periods with no sample
// count as zero-access periods, storage averages over the periods that
// had some, and total <= 0 means the samples added.
func (a *summer) summary(total int) Summary {
	if total <= 0 {
		total = a.samples
	}
	if total == 0 {
		return Summary{}
	}
	sum, storagePeriods := a.sum, a.storagePeriods
	sum.Periods = total
	n := float64(total)
	sum.Reads /= n
	sum.Writes /= n
	sum.BytesOut /= n
	sum.BytesIn /= n
	if storagePeriods > 0 {
		sum.StorageBytes /= float64(storagePeriods)
	}
	return sum
}
