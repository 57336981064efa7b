package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// weekTr, the calibrated stand-in for the production week, is shared by
// the Fig 1 / Table I tests.
var weekTr = workload.DefaultIdleProcess(PrometheusNodes, Week, 1).Generate()

// The seed-1 paper days back the Table II/III reproduction tests and
// the fib-vs-var comparison; each full day runs once.
var (
	fibDay1 = sync.OnceValue(func() DayResult { return must(RunDayCtx(context.Background(), FibDay(1), nil)) })
	varDay1 = sync.OnceValue(func() DayResult { return must(RunDayCtx(context.Background(), VarDay(1), nil)) })
)

func TestFig1Shape(t *testing.T) {
	r := must(RunFig1Ctx(context.Background(), weekTr))
	if r.MeanIdle < 7 || r.MeanIdle > 11.5 {
		t.Errorf("mean idle = %.2f, want ≈9.23", r.MeanIdle)
	}
	if r.MedianPeriod < 80*time.Second || r.MedianPeriod > 170*time.Second {
		t.Errorf("median period = %v, want ≈2m", r.MedianPeriod)
	}
	if r.ZeroIdleShare < 0.06 || r.ZeroIdleShare > 0.16 {
		t.Errorf("zero-idle share = %.3f, want ≈0.10", r.ZeroIdleShare)
	}
	// CDFs are monotone nondecreasing.
	for i := 1; i < len(r.IdleNodesCDF); i++ {
		if r.IdleNodesCDF[i].F < r.IdleNodesCDF[i-1].F {
			t.Fatal("Fig 1a CDF not monotone")
		}
	}
	for i := 1; i < len(r.PeriodCDF); i++ {
		if r.PeriodCDF[i].F < r.PeriodCDF[i-1].F {
			t.Fatal("Fig 1b CDF not monotone")
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 1a") || !strings.Contains(buf.String(), "Fig 1c") {
		t.Error("render missing panels")
	}
}

func TestFig2Shape(t *testing.T) {
	r := must(RunFig2Ctx(context.Background(), 2, 0))
	if r.Jobs != Fig2Jobs {
		t.Errorf("jobs = %d", r.Jobs)
	}
	if r.MedianLimit != time.Hour {
		t.Errorf("median limit = %v, want 1h", r.MedianLimit)
	}
	if r.P5Limit > 15*time.Minute {
		t.Errorf("p5 limit = %v, want ≤15m", r.P5Limit)
	}
	if r.MedianRuntime >= r.MedianLimit {
		t.Errorf("median runtime %v ≥ median limit", r.MedianRuntime)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 2") {
		t.Error("render broken")
	}
}

func TestFig3Reproduction(t *testing.T) {
	r := must(RunFig3Ctx(context.Background(), 3, nil))
	if r.Makespan < 19*time.Minute || r.Makespan > 21*time.Minute {
		t.Errorf("makespan = %v, want ≈20m", r.Makespan)
	}
	if s := r.JobStarts["job1"]; s > 30*time.Second {
		t.Errorf("job1 start = %v, want ≈0", s)
	}
	if s := r.JobStarts["job3"]; s < 4*time.Minute || s > 6*time.Minute {
		t.Errorf("job3 start = %v, want ≈5m", s)
	}
	if s := r.JobStarts["job4"]; s < 11*time.Minute || s > 13*time.Minute {
		t.Errorf("job4 start = %v, want ≈12m", s)
	}
	if r.AvgIdleNodes < 0.9 || r.AvgIdleNodes > 1.7 {
		t.Errorf("avg idle nodes = %.2f, want ≈1.2-1.3", r.AvgIdleNodes)
	}
	// Paper: short invoker jobs cover 83% of the idle slots.
	if r.ReadyCoverage < 0.55 || r.ReadyCoverage > 1.0 {
		t.Errorf("ready coverage = %.2f, want ≈0.8", r.ReadyCoverage)
	}
	if r.PilotsStarted == 0 {
		t.Error("no pilots filled the gaps")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 3") {
		t.Error("render broken")
	}
}

func TestTableIRender(t *testing.T) {
	r := must(RunTableICtx(context.Background(), weekTr))
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, set := range []string{"A1", "A2", "A3", "B", "C1", "C2"} {
		if !strings.Contains(out, set) {
			t.Errorf("render missing set %s", set)
		}
	}
}

// TestFibDayReproduction checks Table II + Fig 5b against the paper's
// shape: live coverage ≈90% close under the simulated bound, ≈10.5
// ready workers, short no-invoker stretches, ≥95% requests invoked,
// ≈0.85s median response.
func TestFibDayReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	r := fibDay1()

	if c := r.Coverage(); c < 0.80 || c > 0.95 {
		t.Errorf("live coverage = %.3f, want ≈0.90", c)
	}
	if r.Sim.Coverage() < r.Coverage()-0.02 {
		t.Errorf("sim bound %.3f below live %.3f", r.Sim.Coverage(), r.Coverage())
	}
	if gap := r.Sim.Coverage() - r.Coverage(); gap > 0.06 {
		t.Errorf("fib sim-live gap = %.3f, want small (paper: 2pp)", gap)
	}
	if r.OW.HealthyAvg < 8 || r.OW.HealthyAvg > 13 {
		t.Errorf("healthy avg = %.2f, want ≈10.4", r.OW.HealthyAvg)
	}
	if r.SlurmLevel.WorkerAvg < r.OW.HealthyAvg {
		t.Errorf("Slurm-level avg %.2f below OW healthy %.2f",
			r.SlurmLevel.WorkerAvg, r.OW.HealthyAvg)
	}
	if r.OW.NoInvokerTotal > 90*time.Minute {
		t.Errorf("no-invoker total = %v, want tens of minutes", r.OW.NoInvokerTotal)
	}
	if r.OW.NoInvokerLongest > 20*time.Minute {
		t.Errorf("no-invoker longest = %v, want ≈7m", r.OW.NoInvokerLongest)
	}
	if r.Load.InvokedShare < 0.93 {
		t.Errorf("invoked share = %.4f, want ≥0.95-ish", r.Load.InvokedShare)
	}
	if r.Load.SuccessShare < 0.93 {
		t.Errorf("success share = %.4f, want ≥0.95", r.Load.SuccessShare)
	}
	if r.Load.MedianLatency < 600*time.Millisecond || r.Load.MedianLatency > 1300*time.Millisecond {
		t.Errorf("median latency = %v, want ≈865ms", r.Load.MedianLatency)
	}
	if r.Series == nil || len(r.Series.Rows()) < 24*60-5 {
		t.Error("per-minute series incomplete")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("render broken")
	}
}

// TestVarDayReproduction checks Table III + Fig 6b: live coverage ≈68%
// with a large gap below the simulated bound (the §V-B2 scheduler
// effect), fewer workers, and ≈78% of requests invoked.
func TestVarDayReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	r := varDay1()

	if c := r.Coverage(); c < 0.55 || c > 0.78 {
		t.Errorf("live coverage = %.3f, want ≈0.68", c)
	}
	if gap := r.Sim.Coverage() - r.Coverage(); gap < 0.08 {
		t.Errorf("var sim-live gap = %.3f, want large (paper: 16pp)", gap)
	}
	if r.OW.HealthyAvg < 3 || r.OW.HealthyAvg > 8 {
		t.Errorf("healthy avg = %.2f, want ≈5", r.OW.HealthyAvg)
	}
	if r.Load.InvokedShare < 0.68 || r.Load.InvokedShare > 0.90 {
		t.Errorf("invoked share = %.4f, want ≈0.78", r.Load.InvokedShare)
	}
	if r.OW.NoInvokerTotal < time.Hour {
		t.Errorf("no-invoker total = %v, want hours (paper: 218m)", r.OW.NoInvokerTotal)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("render broken")
	}
}

// TestFibBeatsVar is the paper's headline comparison: fib covers far
// more of the idle surface than var (90% vs 68%).
func TestFibBeatsVar(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	fib, vr := fibDay1(), varDay1()
	if fib.Coverage() < vr.Coverage()+0.10 {
		t.Errorf("fib %.3f should beat var %.3f by ≥10pp",
			fib.Coverage(), vr.Coverage())
	}
	// And fib keeps more invokers ready for clients.
	if fib.Load.InvokedShare <= vr.Load.InvokedShare {
		t.Errorf("fib invoked %.3f should exceed var %.3f",
			fib.Load.InvokedShare, vr.Load.InvokedShare)
	}
}

func TestFig7Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	r := must(RunFig7Ctx(context.Background(), 20000, 8, 30, 4))
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup < 1.10 || row.Speedup > 1.20 {
			t.Errorf("%s lambda/prometheus = %.3f, want ≈1.15", row.Function, row.Speedup)
		}
		if row.PrometheusMedian <= 0 {
			t.Errorf("%s prometheus median = %v", row.Function, row.PrometheusMedian)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "pagerank") {
		t.Error("render broken")
	}
}

// TestAblationHandoffMatters verifies the §III-C machinery is what
// prevents lost requests: killing workers without the hand-off loses
// work, the full protocol loses (almost) none.
func TestAblationHandoffMatters(t *testing.T) {
	r := goldenAblation()
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant.Name] = row
	}
	full := byName["handoff+interrupt"]
	none := byName["no-handoff"]
	if none.LostShare <= full.LostShare {
		t.Errorf("no-handoff lost %.4f should exceed full hand-off %.4f",
			none.LostShare, full.LostShare)
	}
	if full.LostShare > 0.02 {
		t.Errorf("full hand-off lost %.4f, want ≈0 (paper: 95-97%% complete)", full.LostShare)
	}
	if none.Handoffs != 0 {
		t.Errorf("no-handoff variant recorded %d hand-offs", none.Handoffs)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "no-handoff") {
		t.Error("render broken")
	}
}

// TestDayDeterminism: identical seeds give identical results.
func TestDayDeterminism(t *testing.T) {
	cfg := FibDay(9)
	cfg.Nodes = 128
	cfg.Horizon = 2 * time.Hour
	cfg.MeanIdleNodes = 5
	cfg.QPS = 2
	a := must(RunDayCtx(context.Background(), cfg, nil))
	b := must(RunDayCtx(context.Background(), cfg, nil))
	if a.Coverage() != b.Coverage() || a.Load.Issued != b.Load.Issued ||
		a.PilotsStarted != b.PilotsStarted || a.Preempted != b.Preempted {
		t.Error("same-seed day runs diverged")
	}
}

func TestDayWithoutLoad(t *testing.T) {
	cfg := FibDay(7)
	cfg.Nodes = 64
	cfg.Horizon = time.Hour
	cfg.MeanIdleNodes = 4
	cfg.QPS = 0
	r := must(RunDayCtx(context.Background(), cfg, nil))
	if r.Load.Issued != 0 {
		t.Error("load ran despite QPS=0")
	}
	if r.PilotsStarted == 0 {
		t.Error("no pilots without load?")
	}
}

func TestPolicyMatchesSet(t *testing.T) {
	cfg := VarDay(8)
	cfg.Nodes = 64
	cfg.Horizon = time.Hour
	cfg.MeanIdleNodes = 4
	cfg.QPS = 0
	r := must(RunDayCtx(context.Background(), cfg, nil))
	if r.Sim.Set.Name != "C2" {
		t.Errorf("var day compared against %s, want C2", r.Sim.Set.Name)
	}
	if r.Config.PolicyName() != "var" {
		t.Error("policy lost")
	}
}
