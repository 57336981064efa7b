package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestWindowedCountsTotalsMatchMinuteSeries(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ms := NewMinuteSeries(time.Minute)
	wc := NewWindowedCounts(time.Minute, 60)
	labels := []string{"success", "failed", "lost", "503"}
	for i := 0; i < 100_000; i++ {
		at := time.Duration(r.Int63n(int64(24 * time.Hour)))
		lb := labels[r.Intn(len(labels))]
		ms.Add(at, lb)
		wc.Add(at, lb)
	}
	// The retained tail ends at the full series' last bucket.
	rows := wc.Rows()
	if last := rows[len(rows)-1].Start; last != time.Duration(ms.Buckets()-1)*time.Minute {
		t.Errorf("last retained bucket starts at %v, want bucket %d", last, ms.Buckets()-1)
	}
	wantTotals, gotTotals := ms.Totals(), wc.Totals()
	if len(gotTotals) != len(wantTotals) {
		t.Fatalf("totals label sets differ: %v vs %v", gotTotals, wantTotals)
	}
	for k, v := range wantTotals {
		if gotTotals[k] != v {
			t.Errorf("totals[%s] = %d, want %d", k, gotTotals[k], v)
		}
	}
}

func TestWindowedCountsRetainedTail(t *testing.T) {
	wc := NewWindowedCounts(time.Minute, 3)
	for m := 0; m < 10; m++ {
		for j := 0; j <= m; j++ {
			wc.Add(time.Duration(m)*time.Minute, "x")
		}
	}
	// Only minutes 7, 8, 9 are retained.
	checkTail := func(when string) {
		t.Helper()
		rows := wc.Rows()
		if len(rows) != 3 {
			t.Fatalf("%s: retained %d rows, want 3", when, len(rows))
		}
		for i, wantMin := range []int{7, 8, 9} {
			if rows[i].Start != time.Duration(wantMin)*time.Minute {
				t.Errorf("%s: row %d starts at %v, want minute %d", when, i, rows[i].Start, wantMin)
			}
			if rows[i].Counts["x"] != wantMin+1 {
				t.Errorf("%s: row %d count %d, want %d", when, i, rows[i].Counts["x"], wantMin+1)
			}
		}
	}
	checkTail("after the run")
	// Totals are still exact over the whole run: 1+2+...+10.
	if got := wc.Totals()["x"]; got != 55 {
		t.Errorf("Totals = %d, want 55", got)
	}
	// A late event older than the window counts toward totals only.
	wc.Add(1*time.Minute, "x")
	if got := wc.Totals()["x"]; got != 56 {
		t.Errorf("Totals after stale add = %d, want 56", got)
	}
	checkTail("after the stale add") // no bucket rematerialized
}

func TestWindowedCountsFootprintBounded(t *testing.T) {
	short := NewWindowedCounts(time.Minute, 60)
	long := NewWindowedCounts(time.Minute, 60)
	r := rand.New(rand.NewSource(2))
	labels := []string{"a", "b", "c"}
	for i := 0; i < 20_000; i++ {
		short.Add(time.Duration(r.Int63n(int64(24*time.Hour))), labels[r.Intn(3)])
	}
	for i := 0; i < 20_000; i++ {
		long.Add(time.Duration(r.Int63n(int64(7*24*time.Hour))), labels[r.Intn(3)])
	}
	ms := NewMinuteSeries(time.Minute)
	for i := 0; i < 20_000; i++ {
		ms.Add(time.Duration(r.Int63n(int64(7*24*time.Hour))), labels[r.Intn(3)])
	}
	if long.Footprint() > 2*short.Footprint() {
		t.Errorf("windowed footprint grew with horizon: 1d=%d 7d=%d", short.Footprint(), long.Footprint())
	}
	if ms.Footprint() < 10*long.Footprint() {
		t.Errorf("buffered series (%d B) not ≫ windowed (%d B)", ms.Footprint(), long.Footprint())
	}
}

func TestWindowedCountsBadBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on non-positive bucket")
		}
	}()
	NewWindowedCounts(0, 10)
}

// buildPair feeds the same random piecewise-constant series into a
// buffered TimeWeighted and a TimeWeightedStream.
func buildPair(seed int64, n int) (*TimeWeighted, *TimeWeightedStream) {
	r := rand.New(rand.NewSource(seed))
	tw := &TimeWeighted{}
	st := NewTimeWeightedStream(DefaultCompression)
	at := time.Duration(r.Int63n(int64(time.Hour)))
	for i := 0; i < n; i++ {
		v := float64(r.Intn(20)) // includes real zero dwell time
		tw.Observe(at, v)
		st.Observe(at, v)
		at += time.Duration(r.Int63n(int64(5 * time.Minute)))
	}
	tw.Finish(at)
	st.Finish(at)
	return tw, st
}

func TestTimeWeightedStreamMatchesBuffered(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tw, st := buildPair(seed, 5000)
		if tw.Duration() != st.Duration() {
			t.Errorf("seed %d: Duration %v vs %v", seed, st.Duration(), tw.Duration())
		}
		if math.Abs(tw.TimeMean()-st.TimeMean()) > 1e-9 {
			t.Errorf("seed %d: TimeMean %v vs %v", seed, st.TimeMean(), tw.TimeMean())
		}
		if math.Abs(tw.Integral()-st.Integral()) > 1e-6 {
			t.Errorf("seed %d: Integral %v vs %v", seed, st.Integral(), tw.Integral())
		}
		if tw.ZeroTotal() != st.ZeroTotal() {
			t.Errorf("seed %d: ZeroTotal %v vs %v", seed, st.ZeroTotal(), tw.ZeroTotal())
		}
		if tw.ZeroLongest() != st.ZeroLongest() {
			t.Errorf("seed %d: ZeroLongest %v vs %v", seed, st.ZeroLongest(), tw.ZeroLongest())
		}
		f1, l1 := tw.Span()
		f2, l2 := st.Span()
		if f1 != f2 || l1 != l2 {
			t.Errorf("seed %d: Span (%v,%v) vs (%v,%v)", seed, f2, l2, f1, l1)
		}
		// Quantiles within ε in rank space: time-weighted rank of the
		// stream's estimate vs requested p.
		eps := Epsilon(DefaultCompression)
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			q := st.Quantile(p)
			hi := tw.FractionAtOrBelow(q)
			lo := tw.FractionAtOrBelow(math.Nextafter(q, math.Inf(-1)))
			if p < lo-eps || p > hi+eps {
				t.Errorf("seed %d: q%.2f=%v outside rank bracket [%v,%v]±ε", seed, p, q, lo, hi)
			}
		}
	}
}

func TestTimeWeightedStreamFootprintConstant(t *testing.T) {
	_, small := buildPair(7, 100)
	twBig, big := buildPair(7, 200_000)
	if small.Footprint() != big.Footprint() {
		t.Errorf("stream footprint grew: %d vs %d", small.Footprint(), big.Footprint())
	}
	if twBig.Footprint() < 50*big.Footprint() {
		t.Errorf("buffered series (%d B) not ≫ stream (%d B)", twBig.Footprint(), big.Footprint())
	}
}

func TestTimeWeightedStreamEdgeCases(t *testing.T) {
	st := NewTimeWeightedStream(0)
	if st.Duration() != 0 || st.TimeMean() != 0 || st.Integral() != 0 {
		t.Error("empty stream not zero")
	}
	st.Finish(time.Hour) // Finish before any Observe is a no-op
	if st.Duration() != 0 {
		t.Error("Finish on empty stream observed something")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile on empty stream did not panic")
			}
		}()
		st.Quantile(0.5)
	}()
	// Out-of-order panics like the buffered series.
	st.Observe(time.Minute, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order Observe did not panic")
			}
		}()
		st.Observe(30*time.Second, 2)
	}()
	// Same-instant overwrite: last value wins, like TimeWeighted.
	st2 := NewTimeWeightedStream(0)
	st2.Observe(0, 5)
	st2.Observe(0, 9)
	st2.Finish(time.Second)
	if got := st2.TimeMean(); got != 9 {
		t.Errorf("same-instant overwrite TimeMean = %v, want 9", got)
	}
}

func TestSumTimeMeanOfMatchesSumTimeWeighted(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var bufs []*TimeWeighted
	var asSeries []TimeSeries
	var streams []TimeSeries
	for site := 0; site < 6; site++ {
		tw := &TimeWeighted{}
		st := NewTimeWeightedStream(DefaultCompression)
		at := time.Duration(r.Int63n(int64(2 * time.Hour)))
		for i := 0; i < 500; i++ {
			v := float64(r.Intn(30))
			tw.Observe(at, v)
			st.Observe(at, v)
			at += time.Duration(r.Int63n(int64(10 * time.Minute)))
		}
		tw.Finish(at)
		st.Finish(at)
		bufs = append(bufs, tw)
		asSeries = append(asSeries, tw)
		streams = append(streams, st)
	}
	want := SumTimeWeighted(bufs...).TimeMean()
	if got := SumTimeMeanOf(asSeries...); math.Abs(got-want) > 1e-9 {
		t.Errorf("buffered SumTimeMeanOf = %v, want %v", got, want)
	}
	if got := SumTimeMeanOf(streams...); math.Abs(got-want) > 1e-9 {
		t.Errorf("streaming SumTimeMeanOf = %v, want %v", got, want)
	}
	if got := SumTimeMeanOf(); got != 0 {
		t.Errorf("empty SumTimeMeanOf = %v, want 0", got)
	}
	if got := SumTimeMeanOf(nil, &TimeWeighted{}, NewTimeWeightedStream(0)); got != 0 {
		t.Errorf("degenerate SumTimeMeanOf = %v, want 0", got)
	}
}

func TestCollectorSeamSampleAndDigestAgree(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	collectors := []Collector{&Sample{}, NewTDigest(DefaultCompression)}
	for i := 0; i < 50_000; i++ {
		x := math.Exp(r.NormFloat64())
		for _, c := range collectors {
			c.Add(x)
		}
	}
	s := collectors[0].(*Sample)
	d := collectors[1].(*TDigest)
	if s.Len() != d.Len() {
		t.Fatalf("Len %d vs %d", s.Len(), d.Len())
	}
	if math.Abs(s.Mean()-d.Mean()) > 1e-9*s.Mean() {
		t.Errorf("Mean %v vs %v", d.Mean(), s.Mean())
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if err := rankError(s, d.Quantile(p), p); err > Epsilon(DefaultCompression) {
			t.Errorf("q%.2f rank error %.5f", p, err)
		}
	}
	if d.Footprint() >= s.Footprint() {
		t.Errorf("digest footprint %d not below sample %d at 50k obs", d.Footprint(), s.Footprint())
	}
}
