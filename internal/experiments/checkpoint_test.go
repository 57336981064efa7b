package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// TestCheckpointDisabledMatchesGoldens pins the checkpoint subsystem's
// no-op guarantee: with CheckpointInterval = 0 the (attached but
// disabled) model draws no RNG and schedules no events, so the
// fib/var days reproduce the committed goldens byte for byte. Zero is
// the default interval, so these are the golden test's days and share
// its runs.
func TestCheckpointDisabledMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	withInterval := func(cfg DayConfig, d time.Duration) DayConfig {
		cfg.CheckpointInterval = d
		return cfg
	}
	cases := []struct {
		name   string
		golden string
		cfg    DayConfig
	}{
		{"fib-disabled", "fibday_seed2.golden", withInterval(FibDay(2), 0)},
		{"var-disabled", "varday_seed2.golden", withInterval(VarDay(2), 0)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d := sharedDays.get(tc.cfg)
			checkGolden(t, tc.golden, d.out)
			// The ledger must show a truly idle subsystem — goodput
			// accrues regardless, but no checkpoint machinery ran.
			if d.work.Checkpoints != 0 || d.work.Resumed != 0 ||
				d.work.CheckpointTime != 0 || d.work.RestoreTime != 0 {
				t.Errorf("disabled run touched the checkpoint ledger: %+v", d.work)
			}
			if d.work.Goodput == 0 {
				t.Error("no goodput accounted on a loaded day")
			}
		})
	}
}

// TestCheckpointAblationGoldenUnchanged pins the default three-arm
// ablation against its committed golden with the Checkpoint knob
// explicitly off: the fourth arm is opt-in and must not perturb the
// existing rows.
func TestCheckpointAblationGoldenUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	r := sharedAblations.get(AblationConfig{
		Nodes: 256, Horizon: 4 * time.Hour, Seed: 5, Checkpoint: false,
	})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want the 3 arms without the checkpoint arm", len(r.Rows))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	checkGolden(t, "ablation_n256_h4_seed5.golden", buf.Bytes())
}

// TestCheckpointEnabledShardedIdentity pins a checkpoint-enabled
// federation's run loop: segment events, resume tokens and the work
// ledger ride the shared plane's event order, so the federation
// advanced by RunCtx in DefaultEpoch chunks, as every federated
// scenario runs, is byte-identical to one Run over the whole horizon —
// load report, site counters and every site's ledger. The same small
// checkpointed day runs on two sites, one seed each.
func TestCheckpointEnabledShardedIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	cfg := FibDay(7)
	cfg.Nodes = 64
	cfg.Horizon = 2 * time.Hour
	cfg.MeanIdleNodes = 6
	cfg.SaturatedFraction = 0.02
	cfg.QPS = 5
	cfg.NumActions = 50
	cfg.SleepExec = 500 * time.Millisecond
	cfg.CheckpointInterval = 100 * time.Millisecond
	other := cfg
	other.Seed = 8
	days := []DayConfig{cfg, other}

	wholeWork, wholeOut := runCheckpointedFederation(t, days, false)
	chunkWork, chunkOut := runCheckpointedFederation(t, days, true)

	var dumps int
	for i := range wholeWork {
		if wholeWork[i] != chunkWork[i] {
			t.Errorf("site %d work ledgers diverged:\nwhole:   %+v\nchunked: %+v",
				i, wholeWork[i], chunkWork[i])
		}
		dumps += wholeWork[i].Checkpoints
	}
	if wholeOut != chunkOut {
		t.Errorf("checkpoint-enabled runs diverged between whole and chunked:\n%s\nvs\n%s",
			wholeOut, chunkOut)
	}
	if dumps == 0 {
		t.Error("checkpoint-enabled federation dumped no checkpoints — the identity check is vacuous")
	}
}

// runCheckpointedFederation runs one site per day config behind the
// front door with days[0]'s checkpointed sleep actions and load (QPS
// per site) — in one Run, or chunked by RunCtx — and returns every
// site's work ledger plus a rendering of the load report and each
// site's counters.
func runCheckpointedFederation(t *testing.T, days []DayConfig, chunked bool) ([]stats.WorkCounters, string) {
	sites := make([]core.SiteConfig, len(days))
	for i, d := range days {
		sites[i] = systemConfig(d)
	}
	fed := core.NewFederation(core.FederationConfig{Sites: sites})
	for i, d := range days {
		fed.LoadTrace(i, d.TraceConfig().Generate())
	}
	day := days[0]
	actions := loadgen.ActionNames("sleep", day.NumActions)
	for _, name := range actions {
		fed.RegisterAction(&whisk.Action{
			Name:          name,
			MemoryMB:      256,
			Exec:          whisk.FixedExec(day.SleepExec),
			Interruptible: true,
			Checkpoint:    checkpoint.WithInterval(day.CheckpointInterval),
		})
	}
	gen := loadgen.New(fed.Sim, fed, loadgen.Config{
		QPS: day.QPS * float64(len(days)), Actions: actions, Duration: day.Horizon,
		BucketLen: time.Minute,
	})
	gen.Start()
	fed.Start()
	if chunked {
		if err := fed.RunCtx(t.Context(), day.Horizon+dayDrain, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		fed.Run(day.Horizon + dayDrain)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "load %+v\n", gen.Report())
	work := make([]stats.WorkCounters, len(fed.Sites))
	for i, s := range fed.Sites {
		fmt.Fprintf(&sb, "site %d issued=%d success=%d failed=%d timeout=%d 503=%d pilots=%d preempted=%d handoffs=%d slurm=%+v\n",
			i, fed.Door.IssuedBySite[i], s.Ctrl.NSuccess, s.Ctrl.NFailed, s.Ctrl.NTimeout, s.Ctrl.N503,
			s.Manager.PilotsStarted, s.Slurm.Preempted, s.Manager.Handoffs, s.Logger.Stats())
		work[i] = s.Ctrl.Work
	}
	return work, sb.String()
}

// TestFrontierReclaimsRegion is the tentpole's acceptance check: on a
// periodic idle surface there is a duration × window cell where
// resumed executions complete work the baseline loses outright. The
// 3-minute body against 4-minute windows (2-minute gaps) can never
// finish without checkpoints — every window interrupts it and progress
// restarts from zero — while the checkpointed arm carries progress
// across windows and completes nearly everything.
func TestFrontierReclaimsRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	cfg := DefaultFrontierConfig(3)
	cfg.Durations = []time.Duration{3 * time.Minute}
	cfg.Windows = []time.Duration{4 * time.Minute}
	cfg.Horizon = time.Hour
	r := must(RunFrontierCtx(context.Background(), cfg, nil))

	if len(r.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(r.Cells))
	}
	c := r.Cells[0]
	if c.BaselineShare > 0.10 {
		t.Errorf("baseline completed %.1f%% of a 3m body in 4m windows — expected near-total loss",
			100*c.BaselineShare)
	}
	if c.CheckpointShare < 0.80 {
		t.Errorf("checkpointed arm completed only %.1f%%, want most requests rescued",
			100*c.CheckpointShare)
	}
	if !c.Reclaimed() || r.ReclaimedCells() != 1 {
		t.Error("the cell was not counted as reclaimed")
	}
	if c.Work.Resumed == 0 {
		t.Error("no execution ever resumed — completions did not cross windows")
	}
	if c.Work.Lost != 0 {
		t.Errorf("checkpointed arm lost %v of body time; resumes should rescue interrupted progress", c.Work.Lost)
	}
}

// TestCheckpointAblationArmLowerLostWork is the satellite acceptance
// check on the ablation: the handoff+interrupt+checkpoint arm must
// report strictly lower lost work than plain handoff+interrupt on the
// identical day — checkpoints convert interrupt losses into bounded
// per-segment waste.
func TestCheckpointAblationArmLowerLostWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment (skipped under -short for the CI race gate)")
	}
	r := must(RunAblationCtx(context.Background(), AblationConfig{
		Nodes: 64, Horizon: 2 * time.Hour, Seed: 5, Checkpoint: true,
	}, nil))
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want the 3 base arms + checkpoint arm", len(r.Rows))
	}
	var base, ckpt *AblationRow
	for i := range r.Rows {
		switch r.Rows[i].Variant.Name {
		case "handoff+interrupt":
			base = &r.Rows[i]
		case "handoff+interrupt+checkpoint":
			ckpt = &r.Rows[i]
		}
	}
	if base == nil || ckpt == nil {
		t.Fatal("expected variants missing from the ablation")
	}
	if base.Work.Lost == 0 {
		t.Fatal("baseline arm lost no work — the comparison is vacuous (no interrupts fired?)")
	}
	if ckpt.Work.Lost >= base.Work.Lost {
		t.Errorf("checkpoint arm lost %v, want strictly below the %v of handoff+interrupt",
			ckpt.Work.Lost, base.Work.Lost)
	}
	if ckpt.Work.Checkpoints == 0 || ckpt.Work.Resumed == 0 {
		t.Errorf("checkpoint arm never dumped/resumed: %+v", ckpt.Work)
	}
}
