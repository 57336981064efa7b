package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

const week = 7 * 24 * time.Hour

// weekTrace is generated once and shared by the calibration tests.
var weekTrace = func() *Trace {
	return DefaultIdleProcess(2239, week, 1).Generate()
}()

func TestTraceValidates(t *testing.T) {
	if err := weekTrace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFig1aIdleNodeDistribution checks the time-weighted distribution of
// the number of idle nodes against §I: mean 9.23, median 5, p25 2.
func TestFig1aIdleNodeDistribution(t *testing.T) {
	tw := weekTrace.IdleCount()
	mean := tw.TimeMean()
	if mean < 7.0 || mean > 11.5 {
		t.Errorf("mean idle nodes = %.2f, want ≈9.23", mean)
	}
	med := tw.Quantile(0.5)
	if med < 3 || med > 8 {
		t.Errorf("median idle nodes = %.0f, want ≈5", med)
	}
	p25 := tw.Quantile(0.25)
	if p25 < 0 || p25 > 5 {
		t.Errorf("p25 idle nodes = %.0f, want ≈2", p25)
	}
}

// TestFig1bIdlePeriodLengths checks realized (post-truncation) period
// lengths: median ≈2 min, p75 ≈4 min, mean ≈5 min, ~5% above 23 min.
func TestFig1bIdlePeriodLengths(t *testing.T) {
	s := weekTrace.PeriodLengths()
	if s.Len() < 5000 {
		t.Fatalf("only %d periods in a week", s.Len())
	}
	med := s.Median() / 60
	if med < 1.4 || med > 2.8 {
		t.Errorf("median idle period = %.2f min, want ≈2", med)
	}
	p75 := s.Quantile(0.75) / 60
	if p75 < 2.8 || p75 > 5.5 {
		t.Errorf("p75 idle period = %.2f min, want ≈4", p75)
	}
	mean := s.Mean() / 60
	if mean < 3.5 || mean > 6.5 {
		t.Errorf("mean idle period = %.2f min, want ≈5", mean)
	}
	tail := 1 - s.CDFAt(23*60)
	if tail < 0.025 || tail > 0.075 {
		t.Errorf("P(period > 23 min) = %.3f, want ≈0.05", tail)
	}
}

// TestFig1cSaturation checks the zero-idle share (10.11% in the paper)
// and that saturation stretches are bounded like the observed 93 min max.
func TestFig1cSaturation(t *testing.T) {
	share, longest := weekTrace.SaturationShare()
	if share < 0.06 || share > 0.16 {
		t.Errorf("zero-idle share = %.4f, want ≈0.10", share)
	}
	if longest > 2*time.Hour {
		t.Errorf("longest saturation = %v, want ≤ ~1.55h-ish", longest)
	}
	if longest < 5*time.Minute {
		t.Errorf("longest saturation = %v, implausibly short", longest)
	}
}

// TestFig1cBursts checks that short spikes of many idle nodes occur
// (Fig. 1c shows bursts of up to ~150).
func TestFig1cBursts(t *testing.T) {
	tw := weekTrace.IdleCount()
	p999 := tw.Quantile(0.999)
	if p999 < 30 {
		t.Errorf("p99.9 idle nodes = %.0f, want bursts well above the ~9 mean", p999)
	}
	if p999 > 400 {
		t.Errorf("p99.9 idle nodes = %.0f, implausibly high", p999)
	}
}

// TestIdleSurface checks the total idle surface: the paper reports over
// 37,000 core-hours on 24-core nodes ≈ 1,550 node-hours per week.
func TestIdleSurface(t *testing.T) {
	nodeHours := weekTrace.TotalIdle().Hours()
	if nodeHours < 1100 || nodeHours > 2300 {
		t.Errorf("idle surface = %.0f node-hours, want ≈1550", nodeHours)
	}
}

func TestDeclaredErrorModelApplied(t *testing.T) {
	var under, over, exact int
	for _, p := range weekTrace.Periods {
		switch {
		case p.DeclaredEnd < p.End:
			under++
		case p.DeclaredEnd > p.End:
			over++
		default:
			exact++
		}
	}
	total := float64(len(weekTrace.Periods))
	// Saturation truncation converts some "exact" periods into "over".
	if f := float64(under) / total; f < 0.08 || f > 0.30 {
		t.Errorf("underestimated fraction = %.3f, want ≈0.15", f)
	}
	if f := float64(over) / total; f < 0.08 || f > 0.35 {
		t.Errorf("overestimated fraction = %.3f, want ≈0.15+truncations", f)
	}
	if f := float64(exact) / total; f < 0.4 {
		t.Errorf("exact fraction = %.3f, want majority", f)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := DefaultIdleProcess(64, 6*time.Hour, 7).Generate()
	b := DefaultIdleProcess(64, 6*time.Hour, 7).Generate()
	if len(a.Periods) != len(b.Periods) {
		t.Fatalf("period counts differ: %d vs %d", len(a.Periods), len(b.Periods))
	}
	for i := range a.Periods {
		if a.Periods[i] != b.Periods[i] {
			t.Fatalf("period %d differs", i)
		}
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	tr := DefaultIdleProcess(32, 2*time.Hour, 3).Generate()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != tr.Nodes || len(back.Periods) != len(tr.Periods) {
		t.Fatalf("round trip mismatch: %d/%d periods", len(back.Periods), len(tr.Periods))
	}
	for i := range tr.Periods {
		a, b := tr.Periods[i], back.Periods[i]
		if a.Node != b.Node || !near(a.Start, b.Start) || !near(a.End, b.End) || !near(a.DeclaredEnd, b.DeclaredEnd) {
			t.Fatalf("period %d: %+v vs %+v", i, a, b)
		}
	}
}

func near(a, b time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= time.Millisecond
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty stream should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("#garbage\n")); err == nil {
		t.Error("bad header should error")
	}
	if _, err := ReadCSV(bytes.NewBufferString("#4,100\nnot,a,row\n")); err == nil {
		t.Error("bad row should error")
	}
}

// TestFig2Calibration checks the HPC job stream: median declared 60 min,
// ≤7% under 15 min, runtimes below limits, slack nonnegative.
func TestFig2Calibration(t *testing.T) {
	jobs := DefaultJobGen(74000, week, 5).Generate()
	limits, runtimes, slacks := JobCDFs(jobs)
	if med := limits.Median(); med != 60 {
		t.Errorf("median declared = %v min, want 60", med)
	}
	if f := limits.CDFAt(14.99); f > 0.07 {
		t.Errorf("declared < 15 min fraction = %.3f, want ≈0.05", f)
	}
	if runtimes.Median() >= limits.Median() {
		t.Errorf("median runtime %.1f should be below median limit", runtimes.Median())
	}
	if slacks.Min() < 0 {
		t.Errorf("negative slack %.2f", slacks.Min())
	}
	for i, j := range jobs {
		if j.Runtime > j.Declared {
			t.Fatalf("job %d runtime exceeds limit", i)
		}
		if j.Nodes < 1 {
			t.Fatalf("job %d has %d nodes", i, j.Nodes)
		}
	}
	// Submissions sorted.
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			t.Fatal("jobs not sorted by submit time")
		}
	}
}

// Property: any generated trace validates.
func TestPropertyTraceAlwaysValid(t *testing.T) {
	f := func(seed int64, nodes uint8) bool {
		n := int(nodes%60) + 4
		tr := DefaultIdleProcess(n, 3*time.Hour, seed).Generate()
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: declared error model never yields negative windows.
func TestPropertyDeclaredNonNegative(t *testing.T) {
	for _, p := range weekTrace.Periods {
		if p.DeclaredEnd < p.Start {
			t.Fatalf("declared end %v before start %v", p.DeclaredEnd, p.Start)
		}
	}
}

func TestSmallClusterMeanScales(t *testing.T) {
	cfg := DefaultIdleProcess(200, 48*time.Hour, 11)
	cfg.MeanIdleNodes = 4
	tr := cfg.Generate()
	mean := tr.IdleCount().TimeMean()
	if math.Abs(mean-4) > 1.6 {
		t.Errorf("mean idle = %.2f, want ≈4", mean)
	}
}
