package experiments

import (
	"context"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"
)

// renderFederated captures the full rendered comparison — every
// routing table row and per-site breakdown line — as one string, the
// byte-level fingerprint of a federated run.
func renderFederated(res FederatedResult) string {
	var sb strings.Builder
	res.Render(&sb)
	return sb.String()
}

// TestFederatedShardedMatchesSequential is the tentpole acceptance
// test: a ≥4-site federated day run under the sharded pdes
// coordinator must be byte-identical to the sequential shared-plane
// run — same rendered tables, same metrics map, same routing
// counters — with only wall-clock time differing.
func TestFederatedShardedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping federated sharded-vs-sequential comparison")
	}
	cfg := shortFederatedConfig(3)
	cfg.Routing = []string{"capacity-weighted", "latency-weighted"}

	seq := must(RunFederatedCtx(context.Background(), cfg, nil))

	cfg.Shards = cfg.Sites
	shd := must(RunFederatedCtx(context.Background(), cfg, nil))

	seqOut, shdOut := renderFederated(seq), renderFederated(shd)
	if seqOut != shdOut {
		t.Fatalf("sharded render diverged from sequential:\n--- sequential ---\n%s\n--- sharded ---\n%s", seqOut, shdOut)
	}

	seqM, shdM := seq.Metrics(), shd.Metrics()
	if len(seqM) != len(shdM) {
		t.Fatalf("metric sets differ: %d vs %d keys", len(seqM), len(shdM))
	}
	for k, v := range seqM {
		if got, ok := shdM[k]; !ok || got != v {
			t.Errorf("metric %s: sharded %v, sequential %v", k, got, v)
		}
	}
	for i := range seq.Runs {
		s, p := seq.Runs[i], shd.Runs[i]
		if s.Spilled != p.Spilled || s.NoSitePicks != p.NoSitePicks ||
			s.Load.Issued != p.Load.Issued || s.Load.MedianLatency != p.Load.MedianLatency ||
			!maps.Equal(s.Load.Totals, p.Load.Totals) {
			t.Errorf("[%s] routing counters diverged: seq spilled=%d nosite=%d load=%+v, sharded spilled=%d nosite=%d load=%+v",
				s.Routing, s.Spilled, s.NoSitePicks, s.Load, p.Spilled, p.NoSitePicks, p.Load)
		}
		if s.P50 != p.P50 || s.P95 != p.P95 || s.P99 != p.P99 {
			t.Errorf("[%s] latency quantiles diverged: seq %v/%v/%v, sharded %v/%v/%v",
				s.Routing, s.P50, s.P95, s.P99, p.P50, p.P95, p.P99)
		}
	}
}

// TestFederatedShardCountInvariant pins that the worker budget never
// leaks into results: 2 shards (two sites per worker) and a shard per
// site produce identical output.
func TestFederatedShardCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping shard-count invariance")
	}
	cfg := shortFederatedConfig(9)
	cfg.Horizon = 20 * time.Minute
	cfg.Routing = []string{"spill-over"}

	cfg.Shards = 2
	two := must(RunFederatedCtx(context.Background(), cfg, nil))
	cfg.Shards = cfg.Sites
	all := must(RunFederatedCtx(context.Background(), cfg, nil))
	if a, b := renderFederated(two), renderFederated(all); a != b {
		t.Fatalf("shards=2 output diverged from shards=%d:\n%s\n---\n%s", cfg.Sites, a, b)
	}
}

// TestFederatedShardedRace is the non-Short -race sweep of the
// sharded path: a short multi-window sharded run with more shards
// than sites and streaming collectors, so the race detector crosses
// every coordinator hand-off (inbox, outbox, barrier refresh). It
// asserts only liveness — the byte-identity tests above pin values.
func TestFederatedShardedRace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping sharded race sweep")
	}
	cfg := shortFederatedConfig(5)
	cfg.Horizon = 10 * time.Minute
	cfg.Routing = []string{"capacity-weighted"}
	cfg.Shards = runtime.GOMAXPROCS(0) + 1
	cfg.Streaming = true
	res := must(RunFederatedCtx(context.Background(), cfg, nil))
	if len(res.Runs) != 1 || res.Runs[0].Load.Issued == 0 {
		t.Fatalf("sharded streaming run produced no load: %+v", res.Runs)
	}
}

// TestFederatedShardedCloudFallbackRejected: the Alg. 1 wrapper's
// cooldown state couples completions to later arrivals, which the
// lookahead contract cannot express; the combination must error, not
// silently run sequentially.
func TestFederatedShardedCloudFallbackRejected(t *testing.T) {
	cfg := shortFederatedConfig(7)
	cfg.Horizon = time.Minute
	cfg.CloudFallback = true
	cfg.Shards = 2
	cfg.Routing = []string{"capacity-weighted"}
	if _, err := RunFederatedCtx(t.Context(), cfg, nil); err == nil {
		t.Fatal("cloud fallback + shards did not error")
	}
}
