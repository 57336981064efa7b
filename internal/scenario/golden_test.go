package scenario

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestRegistryPathMatchesPreRefactorGolden closes the loop the Mode →
// policy refactor opened and this redesign extends: the fib/var
// production days run through the *scenario registry* must still
// reproduce, byte for byte, the goldens rendered by the original
// pre-refactor Mode-enum manager (the same files
// internal/experiments/golden_test.go pins for the direct RunDayCtx
// paths).
func TestRegistryPathMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	cases := []struct{ scenario, golden string }{
		{"fib-day", "fibday_seed2.golden"},
		{"var-day", "varday_seed2.golden"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scenario, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), tc.scenario, WithSeed(2))
			if err != nil {
				t.Fatal(err)
			}
			day, ok := res.Unwrap().(experiments.DayResult)
			if !ok {
				t.Fatalf("Unwrap() = %T, want experiments.DayResult", res.Unwrap())
			}
			var buf bytes.Buffer
			day.Render(&buf)
			day.RenderSeries(&buf)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("registry path diverged from the pre-refactor golden %s (%d vs %d bytes)",
					tc.golden, buf.Len(), len(want))
			}
		})
	}
}

// TestMidDayCancellation is the acceptance test of the cancellation
// design: a day experiment canceled mid-run (here by its own progress
// callback, deterministically at the two-hour mark of a 6-hour day)
// must return a partial-result error promptly — at the very next
// simulated epoch — rather than running the day out.
func TestMidDayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cutAt = 2 * time.Hour
	var lastDone time.Duration
	res, err := Run(ctx, "fib-day",
		WithSeed(3),
		WithNodes(64),
		WithHorizon(6*time.Hour),
		WithQPS(0),
		WithProgress(func(done, total time.Duration) {
			lastDone = done
			if done >= cutAt {
				cancel()
			}
		}))
	if err == nil {
		t.Fatal("mid-day cancel: run completed anyway")
	}
	if res != nil {
		t.Errorf("canceled run still returned a result: %v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
	var cut *CancelError
	if !errors.As(err, &cut) {
		t.Fatalf("error %T is not a *CancelError: %v", err, err)
	}
	// The cut must land at the epoch right after the cancel fired:
	// cancellation is checked between epochs, so at most one more
	// epoch runs past the callback.
	if cut.Done < cutAt || cut.Done > cutAt+2*time.Minute {
		t.Errorf("canceled at %v, want within one epoch after %v", cut.Done, cutAt)
	}
	if cut.Done != lastDone {
		t.Errorf("CancelError.Done %v disagrees with the last progress callback %v", cut.Done, lastDone)
	}
	if cut.Scenario != "fib-day" {
		t.Errorf("CancelError.Scenario = %q", cut.Scenario)
	}
	if cut.Total != 6*time.Hour+5*time.Minute {
		t.Errorf("CancelError.Total = %v, want horizon+drain", cut.Total)
	}
}

// TestChunkedRunMatchesDirectPath: the registry's option-to-DayConfig
// mapping must land on exactly the run the direct typed-config path
// produces — checked head-to-head on a small day (the pre-refactor
// goldens pin both against the original monolithic engine).
func TestChunkedRunMatchesDirectPath(t *testing.T) {
	cfg := experiments.FibDay(5)
	cfg.Nodes = 48
	cfg.Horizon = 2 * time.Hour
	cfg.QPS = 2
	direct, err := experiments.RunDayCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), "fib-day",
		WithSeed(5), WithNodes(48), WithHorizon(2*time.Hour), WithQPS(2))
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry := res.Unwrap().(experiments.DayResult)

	renderAll := func(r experiments.DayResult) []byte {
		var buf bytes.Buffer
		r.Render(&buf)
		r.RenderSeries(&buf)
		return buf.Bytes()
	}
	a, b := renderAll(direct), renderAll(viaRegistry)
	if !bytes.Equal(a, b) {
		t.Errorf("registry render diverged from direct RunDayCtx (%d vs %d bytes)", len(b), len(a))
	}
}
