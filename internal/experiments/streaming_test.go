package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

// streamingDay is the scaled-down production day the streaming
// equivalence tests run twice (buffered vs streaming) on one seed.
func streamingDay(base func(int64) DayConfig, seed int64, horizon time.Duration, streaming bool) DayConfig {
	cfg := base(seed)
	cfg.Nodes = 128
	cfg.Horizon = horizon
	cfg.MeanIdleNodes = 6
	cfg.SaturatedFraction = 0.02
	cfg.QPS = 5
	cfg.NumActions = 50
	cfg.SleepExec = 100 * time.Millisecond
	cfg.Streaming = streaming
	return cfg
}

// TestStreamingDayMatchesBuffered is the golden-pinning property test
// of the streaming engine: the same day run with Streaming on must
// reproduce every counter, share and time mean of the buffered run
// exactly (the simulation is untouched — only what the accounting
// retains changes), and its digest quantiles must land within the
// documented stats.Epsilon rank error of the exact buffered sample.
func TestStreamingDayMatchesBuffered(t *testing.T) {
	days := []struct {
		name string
		base func(int64) DayConfig
	}{{"fib", FibDay}, {"var", VarDay}}
	for _, day := range days {
		day := day
		t.Run(day.name, func(t *testing.T) {
			buf := must(RunDayCtx(context.Background(), streamingDay(day.base, 5, 2*time.Hour, false), nil))
			str := must(RunDayCtx(context.Background(), streamingDay(day.base, 5, 2*time.Hour, true), nil))

			// Emulator counters: identical simulation, identical counts.
			if buf.PilotsStarted != str.PilotsStarted || buf.Submitted != str.Submitted ||
				buf.Preempted != str.Preempted || buf.Handoffs != str.Handoffs {
				t.Errorf("counters diverged: buffered (%d,%d,%d,%d) vs streaming (%d,%d,%d,%d)",
					buf.PilotsStarted, buf.Submitted, buf.Preempted, buf.Handoffs,
					str.PilotsStarted, str.Submitted, str.Preempted, str.Handoffs)
			}

			// Load report: shares are pure counter ratios, exact in both
			// modes. The median comes from the digest, so it only has to
			// be rank-close (checked below).
			if buf.Load.Issued != str.Load.Issued {
				t.Errorf("issued: %d vs %d", buf.Load.Issued, str.Load.Issued)
			}
			if buf.Load.InvokedShare != str.Load.InvokedShare ||
				buf.Load.SuccessShare != str.Load.SuccessShare ||
				buf.Load.LostShare != str.Load.LostShare ||
				buf.Load.FailedShare != str.Load.FailedShare {
				t.Errorf("shares diverged: %+v vs %+v", buf.Load, str.Load)
			}
			bufTotals, strTotals := buf.Series.Totals(), str.Series.Totals()
			if len(bufTotals) != len(strTotals) {
				t.Fatalf("outcome labels diverged: %v vs %v", bufTotals, strTotals)
			}
			for label, n := range bufTotals {
				if strTotals[label] != n {
					t.Errorf("total[%s]: %d vs %d", label, n, strTotals[label])
				}
			}

			// Slurm-level: counts and shares exact; means are the same
			// sums accumulated in the same order, so only fp-rounding
			// noise is tolerated.
			bs, ss := buf.SlurmLevel, str.SlurmLevel
			if bs.Measurements != ss.Measurements || bs.AvgSpacing != ss.AvgSpacing {
				t.Errorf("poller cadence diverged: (%d,%v) vs (%d,%v)",
					bs.Measurements, bs.AvgSpacing, ss.Measurements, ss.AvgSpacing)
			}
			if bs.ZeroAvailableStates != ss.ZeroAvailableStates ||
				bs.ZeroWorkerStates != ss.ZeroWorkerStates {
				t.Errorf("zero-state counts diverged: (%d,%d) vs (%d,%d)",
					bs.ZeroAvailableStates, bs.ZeroWorkerStates,
					ss.ZeroAvailableStates, ss.ZeroWorkerStates)
			}
			closeF := func(name string, a, b float64) {
				t.Helper()
				if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
					t.Errorf("%s: buffered %v vs streaming %v", name, a, b)
				}
			}
			closeF("share-used", bs.ShareUsed, ss.ShareUsed)
			closeF("share-not-used", bs.ShareNotUsed, ss.ShareNotUsed)
			closeF("worker-avg", bs.WorkerAvg, ss.WorkerAvg)
			closeF("available-avg", bs.AvailableAvg, ss.AvailableAvg)

			// OW-level: time means and zero-run durations are exact in
			// the streaming accumulator.
			bo, so := buf.OW, str.OW
			closeF("warmup-avg", bo.WarmupAvg, so.WarmupAvg)
			closeF("healthy-avg", bo.HealthyAvg, so.HealthyAvg)
			closeF("irresp-avg", bo.IrrespAvg, so.IrrespAvg)
			if bo.NoInvokerTotal != so.NoInvokerTotal || bo.NoInvokerLongest != so.NoInvokerLongest {
				t.Errorf("no-invoker runs diverged: (%v,%v) vs (%v,%v)",
					bo.NoInvokerTotal, bo.NoInvokerLongest, so.NoInvokerTotal, so.NoInvokerLongest)
			}
			if bo.ReadySpanAvg != so.ReadySpanAvg || bo.ReadySpanMedian != so.ReadySpanMedian {
				t.Errorf("ready spans diverged: (%v,%v) vs (%v,%v)",
					bo.ReadySpanAvg, bo.ReadySpanMedian, so.ReadySpanAvg, so.ReadySpanMedian)
			}

			// Digest quantiles: every probe must land within Epsilon rank
			// error of the exact buffered latency sample.
			sample, ok := buf.Latencies.(*stats.Sample)
			if !ok {
				t.Fatalf("buffered latencies are %T, want *stats.Sample", buf.Latencies)
			}
			dig, ok := str.Latencies.(*stats.TDigest)
			if !ok {
				t.Fatalf("streaming latencies are %T, want *stats.TDigest", str.Latencies)
			}
			if sample.Len() != dig.Len() {
				t.Fatalf("latency counts diverged: %d vs %d", sample.Len(), dig.Len())
			}
			eps := stats.Epsilon(stats.DefaultCompression)
			for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				est := dig.Quantile(p)
				hi := sample.CDFAt(est)
				lo := sample.CDFAt(math.Nextafter(est, math.Inf(-1)))
				if p < lo-eps || p > hi+eps {
					t.Errorf("q(%.2f) = %.4fs has exact rank [%.4f,%.4f], beyond ε=%.3f",
						p, est, lo, hi, eps)
				}
			}

			// Mode wiring: streaming runs expose mergeable digests and
			// skip the buffered per-minute panels; buffered runs do the
			// opposite.
			if str.Digests() == nil || str.Digests()["latency-s"] != dig {
				t.Error("streaming run exposes no latency digest")
			}
			if buf.Digests() != nil {
				t.Error("buffered run claims digests")
			}
			if str.SimReadyPerMinute != nil || str.HealthyPerMinute != nil || str.SlurmPerMinute != nil {
				t.Error("streaming run retained per-minute panels")
			}
			if buf.SimReadyPerMinute == nil || buf.HealthyPerMinute == nil || buf.SlurmPerMinute == nil {
				t.Error("buffered run lost its per-minute panels")
			}
			if str.MetricsBytes >= buf.MetricsBytes {
				t.Errorf("streaming retains %d metric bytes, buffered %d — no saving",
					str.MetricsBytes, buf.MetricsBytes)
			}
		})
	}
}

// TestWeekDayMetricsFootprintFlat is the week-day acceptance check:
// with streaming collectors, stretching the horizon from one day to a
// week must leave the retained metric footprint flat (within 1.2×),
// while buffered collectors grow roughly with the horizon.
func TestWeekDayMetricsFootprintFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day horizons (skipped under -short for the CI race gate)")
	}
	run := func(horizon time.Duration, streaming bool) DayResult {
		cfg := FibDay(11)
		cfg.Nodes = 64
		cfg.Horizon = horizon
		cfg.MeanIdleNodes = 4
		cfg.SaturatedFraction = 0.02
		cfg.QPS = 2
		cfg.NumActions = 20
		cfg.SleepExec = 50 * time.Millisecond
		cfg.Streaming = streaming
		return must(RunDayCtx(context.Background(), cfg, nil))
	}
	day := run(24*time.Hour, true)
	week := run(7*24*time.Hour, true)
	if day.MetricsBytes == 0 || week.MetricsBytes == 0 {
		t.Fatalf("footprint instrumentation broken: day %d, week %d bytes",
			day.MetricsBytes, week.MetricsBytes)
	}
	if limit := day.MetricsBytes * 12 / 10; week.MetricsBytes > limit {
		t.Errorf("streaming week retains %d bytes > 1.2× the 1-day %d — not O(1) in horizon",
			week.MetricsBytes, day.MetricsBytes)
	}
	bufWeek := run(7*24*time.Hour, false)
	if bufWeek.MetricsBytes < 5*week.MetricsBytes {
		t.Errorf("buffered week retains %d bytes vs streaming %d — expected ≥5× gap",
			bufWeek.MetricsBytes, week.MetricsBytes)
	}
}
