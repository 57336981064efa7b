package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func smallPolicyDay(name string, seed int64) DayConfig {
	cfg := FibDay(seed)
	cfg.Policy = name
	cfg.Nodes = 64
	cfg.Horizon = 2 * time.Hour
	cfg.MeanIdleNodes = 6
	cfg.QPS = 5
	cfg.NumActions = 20
	return cfg
}

// TestNewPoliciesDeterministic extends the bit-for-bit reproducibility
// guarantee to the three post-paper policies: same seed, same bytes.
func TestNewPoliciesDeterministic(t *testing.T) {
	for _, name := range []string{"adaptive", "lease", "hybrid"} {
		name := name
		t.Run(name, func(t *testing.T) {
			render := func() []byte {
				r := must(RunDayCtx(context.Background(), smallPolicyDay(name, 11), nil))
				var buf bytes.Buffer
				r.Render(&buf)
				r.RenderSeries(&buf)
				return buf.Bytes()
			}
			a, b := render(), render()
			if !bytes.Equal(a, b) {
				t.Fatalf("same-seed %s runs rendered differently (%d vs %d bytes)", name, len(a), len(b))
			}
		})
	}
}

// TestNewPoliciesHarvest sanity-checks that every new policy actually
// acquires workers and serves load on a day with idle capacity.
func TestNewPoliciesHarvest(t *testing.T) {
	for _, name := range []string{"adaptive", "lease", "hybrid"} {
		name := name
		t.Run(name, func(t *testing.T) {
			r := must(RunDayCtx(context.Background(), smallPolicyDay(name, 12), nil))
			if r.PilotsStarted == 0 {
				t.Error("no pilots started")
			}
			if r.Submitted == 0 {
				t.Error("nothing submitted")
			}
			if r.Load.InvokedShare == 0 {
				t.Error("no request was ever invoked")
			}
			if r.Config.PolicyName() != name {
				t.Errorf("policy name %q lost", name)
			}
		})
	}
}

func TestPolicyComparison(t *testing.T) {
	cfg := DefaultPolicyComparisonConfig(5)
	cfg.Nodes = 64
	cfg.Horizon = time.Hour
	cfg.MeanIdleNodes = 6
	cfg.QPS = 5
	res := must(RunPolicyComparisonCtx(context.Background(), cfg, nil))
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want one per registered policy (5)", len(res.Rows))
	}
	m := res.Metrics()
	for _, row := range res.Rows {
		if row.Submitted == 0 {
			t.Errorf("%s: submitted nothing", row.Policy)
		}
		if _, ok := m[row.Policy+"/coverage"]; !ok {
			t.Errorf("%s: coverage metric missing", row.Policy)
		}
		if _, ok := m[row.Policy+"/503-share"]; !ok {
			t.Errorf("%s: 503 metric missing", row.Policy)
		}
		if _, ok := m[row.Policy+"/handoffs"]; !ok {
			t.Errorf("%s: handoff metric missing", row.Policy)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty render")
	}
}

// TestAblationWithPolicy runs the hand-off ablation under a non-paper
// supply policy.
func TestAblationWithPolicy(t *testing.T) {
	res := must(RunAblationCtx(context.Background(), AblationConfig{Nodes: 32, Horizon: time.Hour, Seed: 3, Policy: "lease"}, nil))
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3 variants", len(res.Rows))
	}
	if res.Policy != "lease" {
		t.Errorf("policy %q lost", res.Policy)
	}
	for _, row := range res.Rows {
		if row.Load.Issued == 0 {
			t.Errorf("%s: no load issued", row.Variant.Name)
		}
	}
}
