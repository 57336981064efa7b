package stats

import "time"

// TimeSeries is the seam for piecewise-constant state accounting over
// virtual time: the buffered TimeWeighted (exact, one segment per
// transition) and the streaming TimeWeightedStream (duration-weighted
// t-digest, O(1) memory) both satisfy it. The query set is the one the
// experiment tables actually read — time mean, time-weighted
// quantiles, and the zero-level run statistics
// behind "sim time with 0 ready workers" in Tables II/III.
type TimeSeries interface {
	// Observe records that the value became v at instant t
	// (nondecreasing t).
	Observe(t time.Duration, v float64)
	// Finish closes the final segment at instant end.
	Finish(end time.Duration)
	// Duration returns the total observed span.
	Duration() time.Duration
	// TimeMean returns the time-weighted average value.
	TimeMean() float64
	// Quantile returns the time-weighted p-quantile (exact for
	// TimeWeighted, within Epsilon rank error for the stream). Panics
	// when empty.
	Quantile(p float64) float64
	// ZeroTotal returns the total time spent exactly at zero.
	ZeroTotal() time.Duration
	// ZeroLongest returns the longest contiguous span spent at zero.
	ZeroLongest() time.Duration
	// Integral returns ∫v dt in value·seconds over the observed span.
	Integral() float64
	// Span returns the first and last observed instants.
	Span() (first, last time.Duration)
	// Footprint returns the retained heap bytes.
	Footprint() int
}

var (
	_ TimeSeries = (*TimeWeighted)(nil)
	_ TimeSeries = (*TimeWeightedStream)(nil)
)

// ZeroTotal returns the total time the value was exactly 0 —
// TotalWhere(v == 0) spelled as a TimeSeries method.
func (tw *TimeWeighted) ZeroTotal() time.Duration {
	return tw.TotalWhere(func(v float64) bool { return v == 0 })
}

// ZeroLongest returns the longest contiguous span at exactly 0 —
// LongestRunWhere(v == 0) spelled as a TimeSeries method.
func (tw *TimeWeighted) ZeroLongest() time.Duration {
	return tw.LongestRunWhere(func(v float64) bool { return v == 0 })
}

// Integral returns ∫v dt in value·seconds over the observed span.
func (tw *TimeWeighted) Integral() float64 {
	sum := 0.0
	for _, s := range tw.segments {
		sum += s.v * s.dur.Seconds()
	}
	return sum
}

// Span returns the first and last observed instants (0,0 when empty).
func (tw *TimeWeighted) Span() (first, last time.Duration) {
	if !tw.started {
		return 0, 0
	}
	return tw.firstT, tw.lastT
}

// TimeWeightedStream is the O(1)-memory TimeSeries: closed segments
// feed a duration-weighted t-digest plus streaming integrals and
// zero-run counters instead of being buffered. Exact where the tables
// need exactness (TimeMean, ZeroTotal, ZeroLongest, Duration are
// computed from running sums), ε-approximate where a sketch suffices
// (Quantile). Memory is O(compression) regardless
// of how many transitions the run produces.
type TimeWeightedStream struct {
	started bool
	firstT  time.Duration
	lastT   time.Duration
	lastV   float64

	dig      *TDigest
	integral float64 // ∫v dt, value·seconds

	zeroTotal   time.Duration
	zeroRun     time.Duration
	zeroLongest time.Duration
}

// NewTimeWeightedStream builds a streaming series with the given
// digest compression (≤0 selects DefaultCompression).
func NewTimeWeightedStream(compression float64) *TimeWeightedStream {
	return &TimeWeightedStream{dig: NewTDigest(compression)}
}

// close folds the segment [lastT, t) at lastV into the running
// aggregates.
func (s *TimeWeightedStream) close(t time.Duration) {
	dur := t - s.lastT
	if dur <= 0 {
		return
	}
	s.dig.AddWeighted(s.lastV, dur.Seconds())
	s.integral += s.lastV * dur.Seconds()
	if s.lastV == 0 {
		s.zeroTotal += dur
		s.zeroRun += dur
		if s.zeroRun > s.zeroLongest {
			s.zeroLongest = s.zeroRun
		}
	} else {
		s.zeroRun = 0
	}
}

// Observe records that the value became v at instant t. Observations
// must arrive in nondecreasing time order, matching TimeWeighted.
func (s *TimeWeightedStream) Observe(t time.Duration, v float64) {
	if s.started {
		if t < s.lastT {
			panic("stats: time-weighted observation out of order")
		}
		s.close(t)
	} else {
		s.firstT = t
	}
	s.started = true
	s.lastT = t
	s.lastV = v
}

// Finish closes the final segment at instant end.
func (s *TimeWeightedStream) Finish(end time.Duration) {
	if !s.started {
		return
	}
	if end < s.lastT {
		panic("stats: finish before last observation")
	}
	s.close(end)
	s.lastT = end
}

// Duration returns the total observed span.
func (s *TimeWeightedStream) Duration() time.Duration {
	if !s.started {
		return 0
	}
	return s.lastT - s.firstT
}

// TimeMean returns the exact time-weighted average value.
func (s *TimeWeightedStream) TimeMean() float64 {
	d := s.Duration()
	if d == 0 {
		return 0
	}
	return s.integral / d.Seconds()
}

// Quantile returns the ε-approximate time-weighted p-quantile. It
// panics if nothing has been observed, matching TimeWeighted.Quantile.
func (s *TimeWeightedStream) Quantile(p float64) float64 {
	if s.dig.Len() == 0 {
		panic("stats: quantile of empty time-weighted series")
	}
	return s.dig.Quantile(p)
}

// ZeroTotal returns the exact total time spent at 0.
func (s *TimeWeightedStream) ZeroTotal() time.Duration { return s.zeroTotal }

// ZeroLongest returns the exact longest contiguous span at 0.
func (s *TimeWeightedStream) ZeroLongest() time.Duration { return s.zeroLongest }

// Integral returns the exact ∫v dt in value·seconds.
func (s *TimeWeightedStream) Integral() float64 { return s.integral }

// Span returns the first and last observed instants (0,0 when empty).
func (s *TimeWeightedStream) Span() (first, last time.Duration) {
	if !s.started {
		return 0, 0
	}
	return s.firstT, s.lastT
}

// Footprint returns the retained heap bytes — the digest's constant.
func (s *TimeWeightedStream) Footprint() int { return s.dig.Footprint() }

// SumTimeMeanOf returns the time mean of the pointwise sum of the
// series over their union span — the streaming counterpart of
// SumTimeWeighted(series...).TimeMean(). Outside its observed span a
// series contributes 0, so the pointwise-sum integral is just the sum
// of per-series integrals divided by the union span: exact for both
// buffered and streaming series, no event sweep and no buffering
// needed. Nil and never-observed series are skipped; 0 when nothing
// was observed.
func SumTimeMeanOf(series ...TimeSeries) float64 {
	var (
		any        bool
		start, end time.Duration
		integral   float64
	)
	for _, s := range series {
		if s == nil {
			continue
		}
		f, l := s.Span()
		if f == 0 && l == 0 && s.Duration() == 0 {
			// Never observed (or a degenerate single instant at 0,0 —
			// zero-duration either way).
			continue
		}
		if !any || f < start {
			start = f
		}
		if !any || l > end {
			end = l
		}
		any = true
		integral += s.Integral()
	}
	if !any || end <= start {
		return 0
	}
	return integral / (end - start).Seconds()
}
