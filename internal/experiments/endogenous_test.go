package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestEndogenousFullScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	r := must(RunEndogenousCtx(context.Background(), DefaultEndogenousConfig(1), nil))

	// The prime load dominates the cluster (ramp-up and job-mix
	// granularity keep a slice below Prometheus's 99%).
	if r.PrimeUtilization < 0.55 || r.PrimeUtilization > 0.98 {
		t.Errorf("prime utilization = %.3f, want high", r.PrimeUtilization)
	}
	// Pilots harvest almost all emergent gaps: with full-scheduler
	// window knowledge, coverage exceeds the trace-driven runs.
	if r.PilotCoverage < 0.70 {
		t.Errorf("pilot coverage = %.3f, want ≥0.70", r.PilotCoverage)
	}
	// Shares are a partition of the cluster.
	total := r.PrimeUtilization + r.IdleShare + r.PilotShare
	if total < 0.99 || total > 1.01 {
		t.Errorf("shares sum to %.4f", total)
	}
	if r.JobsCompleted < r.JobsSubmitted/2 {
		t.Errorf("completed %d of %d prime jobs", r.JobsCompleted, r.JobsSubmitted)
	}
	// Non-invasiveness: prime waits stay modest — pilots are always
	// preemptible, so they never block prime starts.
	if r.MeanWait > 30*time.Minute {
		t.Errorf("mean prime wait = %v, want modest", r.MeanWait)
	}
	if r.Preempted == 0 {
		t.Error("no pilot was ever preempted by prime load?")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Endogenous") {
		t.Error("render broken")
	}
}

func TestEndogenousVarPolicy(t *testing.T) {
	cfg := DefaultEndogenousConfig(2)
	cfg.Policy = "var"
	cfg.Horizon = 4 * time.Hour
	cfg.Nodes = 128
	r := must(RunEndogenousCtx(context.Background(), cfg, nil))
	if r.PilotsStarted == 0 {
		t.Fatal("var pilots never started in full-scheduler mode")
	}
	if r.PilotCoverage <= 0 {
		t.Fatal("no pilot coverage")
	}
}

func TestEndogenousDeterminism(t *testing.T) {
	cfg := DefaultEndogenousConfig(3)
	cfg.Nodes = 64
	cfg.Horizon = 2 * time.Hour
	a := must(RunEndogenousCtx(context.Background(), cfg, nil))
	b := must(RunEndogenousCtx(context.Background(), cfg, nil))
	if a.PrimeUtilization != b.PrimeUtilization || a.PilotsStarted != b.PilotsStarted ||
		a.Preempted != b.Preempted {
		t.Error("same-seed endogenous runs diverged")
	}
}
