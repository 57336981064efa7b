package stats

import "time"

// Collector is the seam between the request path and its latency
// accounting: the buffered Sample (exact, O(n) memory) and the
// streaming TDigest (ε-approximate, O(1) memory) both satisfy it, so
// loadgen, the federation front door, and the Slurm-level logger can
// be pointed at either without changing the hot path. NewCollector,
// NewSeriesCollector and NewTimeSeries are the one place the choice is
// made. Buffered collection stays the default — every golden-pinned
// artifact keeps its exact quantiles — and experiments opt into
// digests for week-scale horizons where buffering per-request series
// is the memory wall.
type Collector interface {
	// Add records one observation; AddDuration records it in seconds.
	Add(x float64)
	AddDuration(d time.Duration)
	// Len returns the number of recorded observations.
	Len() int
	// Mean returns the arithmetic mean (0 when empty).
	Mean() float64
	// Quantile returns the p-quantile; exact for Sample, within the
	// Epsilon rank-error bound for TDigest. Panics when empty.
	Quantile(p float64) float64
	// Median returns the 0.5-quantile.
	Median() float64
	// Footprint returns the retained heap bytes of the collector —
	// O(n) for Sample, O(compression) for TDigest.
	Footprint() int
}

var (
	_ Collector = (*Sample)(nil)
	_ Collector = (*TDigest)(nil)
)

// SeriesCollector is the same seam for labeled event counting over
// time: MinuteSeries buffers every bucket for the paper's per-minute
// panels; WindowedCounts keeps exact running totals but only a bounded
// ring of recent windows, making week-scale load accounting O(1) in
// horizon.
type SeriesCollector interface {
	// Add counts one event with the given label at instant t.
	Add(t time.Duration, label string)
	// Totals sums each label across the whole run (exact for both
	// implementations).
	Totals() map[string]int
	// Rows renders buckets in time order — all of them for
	// MinuteSeries, only the retained tail for WindowedCounts.
	Rows() []Row
	// Footprint returns the retained heap bytes (estimate).
	Footprint() int
}

var (
	_ SeriesCollector = (*MinuteSeries)(nil)
	_ SeriesCollector = (*WindowedCounts)(nil)
)

// NewCollector returns a scalar collector: an exact buffered Sample, or
// under streaming a TDigest of DefaultCompression.
func NewCollector(streaming bool) Collector {
	if streaming {
		return NewTDigest(DefaultCompression)
	}
	return &Sample{}
}

// NewSeriesCollector returns a per-bucket event counter: a MinuteSeries
// keeping every bucket, or under streaming a WindowedCounts keeping the
// last DefaultWindowKeep.
func NewSeriesCollector(bucket time.Duration, streaming bool) SeriesCollector {
	if streaming {
		return NewWindowedCounts(bucket, DefaultWindowKeep)
	}
	return NewMinuteSeries(bucket)
}

// NewTimeSeries returns a piecewise-constant state series: an exact
// buffered TimeWeighted, or under streaming a TimeWeightedStream of
// DefaultCompression.
func NewTimeSeries(streaming bool) TimeSeries {
	if streaming {
		return NewTimeWeightedStream(DefaultCompression)
	}
	return &TimeWeighted{}
}

// Footprint returns the retained heap bytes of the sample buffer and
// its parked blocks.
func (s *Sample) Footprint() int {
	n := cap(s.xs)
	for _, b := range s.parked {
		n += cap(b)
	}
	return n * 8
}

// Footprint estimates the retained heap bytes of the series: Go map
// buckets cost ~(2 words + key + value + overhead) per entry; 48 bytes
// per label entry plus 64 per bucket map is a deliberately conservative
// flat estimate. The point is the growth law (linear in buckets), not
// allocator-exact byte counts.
func (ms *MinuteSeries) Footprint() int {
	n := 0
	for _, b := range ms.buckets {
		n += 64 + 48*len(b)
	}
	return n
}

// Footprint returns the retained heap bytes of the segment buffer.
func (tw *TimeWeighted) Footprint() int { return cap(tw.segments) * 16 }
