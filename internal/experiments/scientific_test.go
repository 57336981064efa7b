package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/faasload"
)

func TestScientificWorkloadRun(t *testing.T) {
	r := must(RunScientificCtx(context.Background(), DefaultScientificConfig(1), nil))

	if r.Load.Issued != 43200 {
		t.Fatalf("issued = %d, want 2 QPS × 6 h", r.Load.Issued)
	}
	// The wrapper absorbs every 503: clients always get an answer.
	if r.Load.InvokedShare < 0.999 {
		t.Errorf("invoked share = %.4f, want ≈1.0 through Alg. 1", r.Load.InvokedShare)
	}
	if r.Load.SuccessShare < 0.90 {
		t.Errorf("success share = %.4f, want ≥0.90", r.Load.SuccessShare)
	}
	// All three classes saw traffic, short dominated by the Zipf skew
	// toward... (classes are assigned by duration, not rank, so just
	// check presence and sane latency ordering).
	short := r.ByClass[faasload.ClassShort]
	medium := r.ByClass[faasload.ClassMedium]
	long := r.ByClass[faasload.ClassLong]
	if short.Invocations == 0 || medium.Invocations == 0 || long.Invocations == 0 {
		t.Fatalf("class coverage: %d/%d/%d", short.Invocations, medium.Invocations, long.Invocations)
	}
	if !(short.Median < medium.Median && medium.Median < long.Median) {
		t.Errorf("median ordering broken: %v < %v < %v",
			short.Median, medium.Median, long.Median)
	}
	// The §III-C caveat: non-interruptible long functions lose more
	// work per invocation than interruptible short ones.
	lostRate := func(s ClassStats) float64 {
		if s.Invocations == 0 {
			return 0
		}
		return float64(s.Lost) / float64(s.Invocations)
	}
	if lostRate(long) <= lostRate(short) {
		t.Errorf("long-class loss rate %.5f should exceed short-class %.5f (non-interruptible)",
			lostRate(long), lostRate(short))
	}
	if r.FallbackShare <= 0 || r.FallbackShare > 0.5 {
		t.Errorf("fallback share = %.3f, want small but positive", r.FallbackShare)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Scientific FaaS workload") {
		t.Error("render broken")
	}
}

func TestScientificWithoutWrapper(t *testing.T) {
	cfg := DefaultScientificConfig(2)
	cfg.UseWrapper = false
	cfg.Horizon /= 3
	r := must(RunScientificCtx(context.Background(), cfg, nil))
	// Raw cluster: 503s now surface to the client.
	if r.Load.InvokedShare >= 1.0 {
		t.Errorf("invoked share = %.4f; without the wrapper some 503s must surface", r.Load.InvokedShare)
	}
	if r.FallbackShare != 0 {
		t.Errorf("fallback share = %.3f without a wrapper", r.FallbackShare)
	}
}

func TestScientificDeterminism(t *testing.T) {
	cfg := DefaultScientificConfig(3)
	cfg.Horizon /= 6
	a := must(RunScientificCtx(context.Background(), cfg, nil))
	b := must(RunScientificCtx(context.Background(), cfg, nil))
	if a.Load.Issued != b.Load.Issued || a.Load.SuccessShare != b.Load.SuccessShare ||
		a.PilotsStarted != b.PilotsStarted {
		t.Error("same-seed scientific runs diverged")
	}
}
