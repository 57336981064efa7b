package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

func shortFederatedConfig(seed int64) FederatedConfig {
	cfg := DefaultFederatedConfig(seed)
	cfg.Horizon = time.Hour
	cfg.QPS = 10
	cfg.NumActions = 20
	return cfg
}

// TestFederatedRoutingComparison: one run per routing policy under
// identical seeds — the site-local simulations must be identical across
// runs (pilots, coverage, healthy time) while only the routing differs.
func TestFederatedRoutingComparison(t *testing.T) {
	cfg := shortFederatedConfig(3)
	res := must(RunFederatedCtx(context.Background(), cfg, nil))
	if len(res.Runs) == 0 {
		t.Fatal("no routing runs")
	}
	ref := res.Runs[0]
	if len(ref.Sites) != cfg.Sites {
		t.Fatalf("run has %d site stats, want %d", len(ref.Sites), cfg.Sites)
	}
	for _, run := range res.Runs[1:] {
		for i := range run.Sites {
			if run.Sites[i].Pilots != ref.Sites[i].Pilots ||
				run.Sites[i].Coverage != ref.Sites[i].Coverage ||
				run.Sites[i].HealthyAvg != ref.Sites[i].HealthyAvg {
				t.Fatalf("site %d harvest diverged between routing %q and %q — sites must be pure functions of their config",
					i, ref.Routing, run.Routing)
			}
		}
		if run.GlobalHealthyAvg != ref.GlobalHealthyAvg {
			t.Fatalf("global healthy avg diverged between routing runs")
		}
	}
	for _, run := range res.Runs {
		if run.Load.Issued == 0 || run.Load.SuccessShare == 0 {
			t.Fatalf("routing %q served no traffic", run.Routing)
		}
		var issued int
		for _, s := range run.Sites {
			issued += s.Issued
		}
		if issued != run.Load.Issued {
			t.Fatalf("routing %q: per-site issued %d != generator issued %d",
				run.Routing, issued, run.Load.Issued)
		}
	}
	// Heterogeneous calibrations must actually alternate.
	if ref.Sites[0].Kind != "calm" || ref.Sites[1].Kind != "contended" {
		t.Fatalf("site kinds = %q, %q; want calm, contended", ref.Sites[0].Kind, ref.Sites[1].Kind)
	}
}

// TestFederatedMetricsAndRender: the sweep contract exposes one metric
// set per routing policy and the render includes the comparison table.
func TestFederatedMetricsAndRender(t *testing.T) {
	cfg := shortFederatedConfig(5)
	cfg.Routing = []string{"spill-over", "capacity-weighted"}
	res := must(RunFederatedCtx(context.Background(), cfg, nil))
	m := res.Metrics()
	for _, r := range cfg.Routing {
		for _, k := range []string{"-success-share", "-spill-share", "-healthy-avg", "-coverage"} {
			if _, ok := m[r+k]; !ok {
				t.Errorf("metric %q missing", r+k)
			}
		}
	}
	var b strings.Builder
	res.Render(&b)
	out := b.String()
	for _, want := range []string{"routing", "spill-over", "capacity-weighted", "per site", "contended"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}

// TestFederatedCancellation: a canceled context aborts the comparison
// promptly with the context's error.
func TestFederatedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := shortFederatedConfig(7)
	if _, err := RunFederatedCtx(ctx, cfg, nil); err == nil {
		t.Fatal("canceled federated run returned nil error")
	}
}
