package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := s.Quantile(0.25); math.Abs(got-25.75) > 1e-9 {
		t.Errorf("q25 = %v, want 25.75", got)
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	_ = s.Median()
	s.Add(2)
	if got := s.Median(); got != 2 {
		t.Errorf("median after re-add = %v, want 2", got)
	}
}

func TestSampleCDFAt(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 2, 3} {
		s.Add(x)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.CDFAt(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSampleCDFPoints(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	pts := s.CDF([]float64{0, 1, 2, 3})
	wantF := []float64{0, 0.5, 0.5, 1}
	for i, p := range pts {
		if p.F != wantF[i] {
			t.Errorf("CDF point %d = %v, want %v", i, p.F, wantF[i])
		}
	}
}

func TestSampleMinMaxMeanDuration(t *testing.T) {
	var s Sample
	s.AddDuration(2 * time.Second)
	s.AddDuration(4 * time.Second)
	if s.Min() != 2 || s.Max() != 4 || s.Mean() != 3 {
		t.Errorf("min/max/mean = %v/%v/%v", s.Min(), s.Max(), s.Mean())
	}
}

func TestEmptySamplePanics(t *testing.T) {
	var s Sample
	defer func() {
		if recover() == nil {
			t.Error("quantile of empty sample should panic")
		}
	}()
	s.Quantile(0.5)
}

func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w Welford
	xs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 7
		xs = append(xs, x)
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Errorf("welford mean %v vs %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-9 {
		t.Errorf("welford var %v vs %v", w.Var(), variance)
	}
	if w.n != 1000 {
		t.Errorf("welford n = %d", w.n)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 10)
	tw.Observe(10*time.Second, 20)
	tw.Finish(20 * time.Second)
	if got := tw.TimeMean(); math.Abs(got-15) > 1e-9 {
		t.Errorf("time mean = %v, want 15", got)
	}
	if tw.Duration() != 20*time.Second {
		t.Errorf("duration = %v, want 20s", tw.Duration())
	}
}

func TestTimeWeightedQuantile(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 1)
	tw.Observe(50*time.Second, 2)
	tw.Observe(75*time.Second, 3)
	tw.Finish(100 * time.Second)
	// 50% of time at 1, 25% at 2, 25% at 3.
	if got := tw.Quantile(0.25); got != 1 {
		t.Errorf("q25 = %v, want 1", got)
	}
	if got := tw.Quantile(0.5); got != 1 {
		t.Errorf("q50 = %v, want 1", got)
	}
	if got := tw.Quantile(0.6); got != 2 {
		t.Errorf("q60 = %v, want 2", got)
	}
	if got := tw.Quantile(0.9); got != 3 {
		t.Errorf("q90 = %v, want 3", got)
	}
}

func TestTimeWeightedFractions(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 0)
	tw.Observe(30*time.Second, 5)
	tw.Finish(100 * time.Second)
	if got := tw.FractionEqual(0); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("fraction at 0 = %v, want 0.3", got)
	}
	if got := tw.FractionAtOrBelow(5); got != 1 {
		t.Errorf("fraction ≤5 = %v, want 1", got)
	}
}

func TestTimeWeightedRuns(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 0)
	tw.Observe(1*time.Minute, 3)
	tw.Observe(2*time.Minute, 0)
	tw.Observe(5*time.Minute, 1)
	tw.Finish(6 * time.Minute)
	zero := func(v float64) bool { return v == 0 }
	if got := tw.LongestRunWhere(zero); got != 3*time.Minute {
		t.Errorf("longest zero run = %v, want 3m", got)
	}
	if got := tw.TotalWhere(zero); got != 4*time.Minute {
		t.Errorf("total zero time = %v, want 4m", got)
	}
}

func TestTimeWeightedSameInstantOverwrite(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 1)
	tw.Observe(0, 2) // replaces value at instant 0, no zero-length segment
	tw.Finish(10 * time.Second)
	if got := tw.TimeMean(); got != 2 {
		t.Errorf("time mean = %v, want 2", got)
	}
}

func TestTimeWeightedOutOfOrderPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(10*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order observation should panic")
		}
	}()
	tw.Observe(5*time.Second, 2)
}

func TestMinuteSeries(t *testing.T) {
	ms := NewMinuteSeries(time.Minute)
	ms.Add(10*time.Second, "ok")
	ms.Add(30*time.Second, "ok")
	ms.Add(70*time.Second, "fail")
	ms.Add(200*time.Second, "ok")
	if ms.Buckets() != 4 {
		t.Errorf("buckets = %d, want 4", ms.Buckets())
	}
	if got := ms.buckets[0]["ok"]; got != 2 {
		t.Errorf("bucket0 ok = %d, want 2", got)
	}
	if got := ms.buckets[1]["fail"]; got != 1 {
		t.Errorf("bucket1 fail = %d, want 1", got)
	}
	totals := ms.Totals()
	if totals["ok"] != 3 || totals["fail"] != 1 {
		t.Errorf("totals = %v", totals)
	}
	rows := ms.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[3].Start != 3*time.Minute {
		t.Errorf("row3 start = %v, want 3m", rows[3].Start)
	}
	if rows[2].Counts["ok"] != 0 {
		t.Errorf("empty bucket should have zero counts")
	}
}

// Property: Sample.Quantile is monotone in p and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		a := float64(pa%101) / 100
		b := float64(pb%101) / 100
		if a > b {
			a, b = b, a
		}
		qa, qb := s.Quantile(a), s.Quantile(b)
		return qa <= qb && qa >= s.Min() && qb <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: time-weighted mean is bounded by observed min/max values.
func TestPropertyTimeWeightedMeanBounded(t *testing.T) {
	f := func(vals []uint8, durs []uint8) bool {
		if len(vals) == 0 || len(durs) == 0 {
			return true
		}
		n := len(vals)
		if len(durs) < n {
			n = len(durs)
		}
		var tw TimeWeighted
		var t0 time.Duration
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := float64(vals[i])
			tw.Observe(t0, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			// Convert before adding 1: durs[i]+1 overflows uint8 at 0xff,
			// which would make a zero-duration series (TimeMean 0).
			t0 += (time.Duration(durs[i]) + 1) * time.Second
		}
		tw.Finish(t0)
		m := tw.TimeMean()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
