package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func smallDay(seed int64) DayConfig {
	cfg := FibDay(seed)
	cfg.Nodes = 128
	cfg.Horizon = 2 * time.Hour
	cfg.MeanIdleNodes = 6
	cfg.QPS = 2
	cfg.NumActions = 10
	return cfg
}

func TestDaySeriesExported(t *testing.T) {
	r := must(RunDayCtx(context.Background(), smallDay(31), nil))
	if len(r.SimReadyPerMinute) < 115 {
		t.Fatalf("sim series = %d minutes", len(r.SimReadyPerMinute))
	}
	if len(r.SlurmPerMinute) != 120 {
		t.Fatalf("slurm series = %d minutes", len(r.SlurmPerMinute))
	}
	if len(r.HealthyPerMinute) < 115 {
		t.Fatalf("healthy series = %d minutes", len(r.HealthyPerMinute))
	}
	// The three panels agree on scale: minute averages track each other
	// within a few workers.
	var simSum, owSum float64
	n := len(r.SimReadyPerMinute)
	if len(r.HealthyPerMinute) < n {
		n = len(r.HealthyPerMinute)
	}
	for i := 0; i < n; i++ {
		simSum += r.SimReadyPerMinute[i]
		owSum += r.HealthyPerMinute[i]
	}
	if owSum > simSum*1.3 {
		t.Errorf("OW series mass %.0f grossly exceeds sim bound %.0f", owSum, simSum)
	}
}

func TestRenderSeries(t *testing.T) {
	r := must(RunDayCtx(context.Background(), smallDay(32), nil))
	var buf bytes.Buffer
	r.RenderSeries(&buf)
	out := buf.String()
	if !strings.Contains(out, "Fig 5a") {
		t.Errorf("series render missing header:\n%s", out[:80])
	}
	if lines := strings.Count(out, "\n"); lines < 100 {
		t.Errorf("series render has %d lines", lines)
	}
}

func TestSlurmPerMinuteMath(t *testing.T) {
	entries := []core.SlurmLogEntry{
		{At: 10 * time.Second, Pilot: 4},
		{At: 30 * time.Second, Pilot: 6},
		{At: 90 * time.Second, Pilot: 10},
	}
	got := slurmPerMinute(entries, 2*time.Minute)
	if len(got) != 2 {
		t.Fatalf("buckets = %d", len(got))
	}
	if got[0] != 5 {
		t.Errorf("minute 0 = %v, want 5", got[0])
	}
	if got[1] != 10 {
		t.Errorf("minute 1 = %v, want 10", got[1])
	}
}

func TestTraceConfigReflectsDay(t *testing.T) {
	day := VarDay(5)
	cfg := day.TraceConfig()
	if cfg.MeanIdleNodes != day.MeanIdleNodes {
		t.Errorf("mean = %v", cfg.MeanIdleNodes)
	}
	if cfg.ContendedMean != day.ContendedMean || cfg.CalmMean != day.CalmMean {
		t.Error("regime means not forwarded")
	}
	tr := cfg.Generate()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWeekWindowDay: cutting one experiment day out of the week trace
// (as the paper did with separate working days) yields a valid day.
func TestWeekWindowDay(t *testing.T) {
	day := weekTr.Window(2*24*time.Hour, 3*24*time.Hour)
	if day.Horizon != 24*time.Hour {
		t.Fatalf("horizon = %v", day.Horizon)
	}
	if err := day.Validate(); err != nil {
		t.Fatal(err)
	}
	mean := day.IdleCount().TimeMean()
	if mean < 3 || mean > 20 {
		t.Errorf("day mean idle = %.2f, implausible", mean)
	}
}
