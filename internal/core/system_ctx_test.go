package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestRunCtxChunksMatchRun: epoch-chunked advancement must fire the
// same events as one monolithic Run — the property every scenario
// golden relies on — checked via the emulator counters of two
// identically seeded systems.
func TestRunCtxChunksMatchRun(t *testing.T) {
	build := func() *Site {
		s := newSite(DefaultSystemConfig(16, "fib"))
		cfg := workload.DefaultIdleProcess(16, 2*time.Hour, 11)
		cfg.MeanIdleNodes = 4
		s.LoadTrace(cfg.Generate())
		s.Start()
		return s
	}
	a := build()
	a.Run(2 * time.Hour)
	b := build()
	if err := b.RunCtx(context.Background(), 2*time.Hour, 7*time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	if a.Manager.PilotsStarted != b.Manager.PilotsStarted ||
		a.Manager.Submitted != b.Manager.Submitted ||
		a.Slurm.Preempted != b.Slurm.Preempted {
		t.Errorf("chunked run diverged: pilots %d/%d submitted %d/%d preempted %d/%d",
			a.Manager.PilotsStarted, b.Manager.PilotsStarted,
			a.Manager.Submitted, b.Manager.Submitted,
			a.Slurm.Preempted, b.Slurm.Preempted)
	}
}

// TestRunCtxCompletionBeatsCancellation: a cancellation that lands
// after the final epoch has fired must not turn a fully simulated run
// into a partial-result error.
func TestRunCtxCompletionBeatsCancellation(t *testing.T) {
	sys := newSite(DefaultSystemConfig(8, "fib"))
	sys.LoadTrace(&workload.Trace{Nodes: 8, Horizon: time.Hour})
	sys.Start()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := sys.RunCtx(ctx, time.Hour, 0, func(done, total time.Duration) {
		if done >= total {
			cancel() // races completion: the run is already whole
		}
	})
	if err != nil {
		t.Fatalf("completed run reported %v", err)
	}
	if sys.Sim.Now() != time.Hour {
		t.Errorf("clock at %v, want the full hour", sys.Sim.Now())
	}
}
