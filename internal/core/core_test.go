package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/whisk"
	"repro/internal/workload"
)

func smallTrace(nodes int, horizon time.Duration, seed int64, meanIdle float64) *workload.Trace {
	cfg := workload.DefaultIdleProcess(nodes, horizon, seed)
	cfg.MeanIdleNodes = meanIdle
	return cfg.Generate()
}

// newSite builds a single-cluster deployment on a fresh clock.
func newSite(cfg SiteConfig) *Site { return NewSite(des.New(), cfg) }

func newSeededSite(nodes int, policyName string, seed int64) *Site {
	cfg := DefaultSystemConfig(nodes, policyName)
	cfg.Seed = seed
	return newSite(cfg)
}

func TestFibReplenishmentKeepsDepth(t *testing.T) {
	s := newSeededSite(8, "fib", 1)
	s.LoadTrace(&workload.Trace{Nodes: 8, Horizon: time.Hour}) // no idle windows
	s.Start()
	s.Run(5 * time.Minute)
	want := len(SetA1) * 10
	if got := s.Slurm.QueuedPilots(); got != want {
		t.Errorf("queued = %d, want %d (9 lengths × 10)", got, want)
	}
	byLimit := s.Slurm.QueuedPilotsByLimit()
	for _, l := range SetA1 {
		if byLimit[l] != 10 {
			t.Errorf("length %v: %d queued, want 10", l, byLimit[l])
		}
	}
}

func TestVarReplenishmentKeepsDepth(t *testing.T) {
	s := newSeededSite(8, "var", 1)
	s.LoadTrace(&workload.Trace{Nodes: 8, Horizon: time.Hour})
	s.Start()
	s.Run(5 * time.Minute)
	if got := s.Slurm.QueuedPilots(); got != 100 {
		t.Errorf("queued = %d, want 100", got)
	}
}

func TestPilotLifecycleEndToEnd(t *testing.T) {
	s := newSeededSite(16, "fib", 2)
	tr := smallTrace(16, 2*time.Hour, 3, 5)
	s.LoadTrace(tr)
	s.Ctrl.RegisterAction(&whisk.Action{
		Name: "hello", Exec: whisk.FixedExec(10 * time.Millisecond), Interruptible: true,
	})
	s.Start()

	successes := 0
	tick := s.Sim.Every(2*time.Second, func() {
		s.Ctrl.Invoke("hello", func(inv *whisk.Invocation) {
			if inv.Status == whisk.StatusSuccess {
				successes++
			}
		})
	})
	s.Run(2 * time.Hour)
	tick.Stop()
	s.Run(2 * time.Minute)

	if s.Manager.PilotsStarted == 0 {
		t.Fatal("no pilots ever started")
	}
	if s.Manager.Registered == 0 {
		t.Fatal("no invokers registered")
	}
	if successes == 0 {
		t.Fatal("no invocation succeeded")
	}
	total := s.Ctrl.NSuccess + s.Ctrl.NFailed + s.Ctrl.NTimeout + s.Ctrl.N503
	if frac := float64(s.Ctrl.NSuccess) / float64(total); frac < 0.5 {
		t.Errorf("success fraction = %.2f, want majority", frac)
	}
}

func TestSigtermDuringWarmupExitsCleanly(t *testing.T) {
	// A 30-second window with a long declared end: the pilot starts,
	// gets preempted while still warming up (warm-up median 12.5 s but
	// scheduling takes ~15 s, so the reclaim hits during warm-up).
	s := newSeededSite(1, "fib", 3)
	tr := &workload.Trace{Nodes: 1, Horizon: time.Hour, Periods: []workload.IdlePeriod{
		{Node: 0, Start: 0, End: 40 * time.Second, DeclaredEnd: 30 * time.Minute},
	}}
	s.LoadTrace(tr)
	s.Start()
	s.Run(10 * time.Minute)
	if s.Manager.PilotsStarted == 0 {
		t.Skip("pilot did not start within the tiny window under this seed")
	}
	if s.Manager.Registered > 0 && s.Manager.KilledInWarmup > 0 {
		t.Errorf("pilot counted both registered and killed-in-warmup")
	}
	if len(s.Manager.pilots) != 0 {
		t.Errorf("pilots still tracked after window closed: %d", len(s.Manager.pilots))
	}
}

func TestGracefulHandoffPreservesWork(t *testing.T) {
	s := newSeededSite(4, "fib", 4)
	// Two long windows; one closes mid-run and preempts its pilot.
	tr := &workload.Trace{Nodes: 4, Horizon: 3 * time.Hour, Periods: []workload.IdlePeriod{
		{Node: 0, Start: 0, End: 30 * time.Minute, DeclaredEnd: 2 * time.Hour},
		{Node: 1, Start: 0, End: 3 * time.Hour, DeclaredEnd: 3 * time.Hour},
	}}
	s.LoadTrace(tr)
	s.Ctrl.RegisterAction(&whisk.Action{
		Name: "work", Exec: whisk.FixedExec(3 * time.Second), Interruptible: true,
	})
	s.Start()
	statuses := map[whisk.Status]int{}
	tick := s.Sim.Every(time.Second, func() {
		s.Ctrl.Invoke("work", func(inv *whisk.Invocation) { statuses[inv.Status]++ })
	})
	s.Run(40 * time.Minute)
	tick.Stop()
	s.Run(5 * time.Minute)

	if s.Manager.Handoffs == 0 {
		t.Fatal("no hand-off happened despite preemption")
	}
	total := 0
	for _, n := range statuses {
		total += n
	}
	lossRate := float64(statuses[whisk.StatusTimeout]) / float64(total)
	if lossRate > 0.03 {
		t.Errorf("timeout rate %.3f with graceful hand-off, want ≈0 (%v)", lossRate, statuses)
	}
}

func TestUngracefulAblationLosesWork(t *testing.T) {
	cfg := DefaultSystemConfig(4, "fib")
	cfg.Seed = 5
	cfg.Manager.GracefulHandoff = false
	s := newSite(cfg)
	tr := &workload.Trace{Nodes: 4, Horizon: 3 * time.Hour, Periods: []workload.IdlePeriod{
		{Node: 0, Start: 0, End: 30 * time.Minute, DeclaredEnd: 2 * time.Hour},
	}}
	s.LoadTrace(tr)
	s.Ctrl.RegisterAction(&whisk.Action{
		Name: "work", Exec: whisk.FixedExec(5 * time.Second), Interruptible: true,
	})
	s.Start()
	statuses := map[whisk.Status]int{}
	tick := s.Sim.Every(time.Second, func() {
		s.Ctrl.Invoke("work", func(inv *whisk.Invocation) { statuses[inv.Status]++ })
	})
	s.Run(40 * time.Minute)
	tick.Stop()
	s.Run(5 * time.Minute)
	if s.Manager.KilledUngraceful == 0 {
		t.Fatal("ablation never exercised the hard-kill path")
	}
	if statuses[whisk.StatusTimeout] == 0 {
		t.Errorf("hard kill lost no work: %v", statuses)
	}
}

// fakeBackend completes every call successfully after a fixed delay.
type fakeBackend struct {
	sim   *des.Sim
	delay time.Duration
	calls int
}

func (f *fakeBackend) Invoke(action string, done func(*whisk.Invocation)) {
	f.calls++
	inv := &whisk.Invocation{Submitted: f.sim.Now(), InvokerID: -1}
	f.sim.After(f.delay, func() {
		inv.Completed = f.sim.Now()
		inv.Status = whisk.StatusSuccess
		if done != nil {
			done(inv)
		}
	})
}

func TestWrapperFallsBackOn503(t *testing.T) {
	s := newSeededSite(2, "fib", 6)
	s.LoadTrace(&workload.Trace{Nodes: 2, Horizon: time.Hour}) // never any invoker
	s.Ctrl.RegisterAction(&whisk.Action{Name: "f", Exec: whisk.FixedExec(time.Millisecond)})
	s.Start()
	fb := &fakeBackend{sim: s.Sim, delay: 150 * time.Millisecond}
	w := NewWrapper(s.Sim, s.Ctrl, fb)

	results := 0
	for i := 0; i < 5; i++ {
		s.Sim.Schedule(des.Time(i)*des.Time(10*time.Second), func() {
			w.Invoke("f", func(inv *whisk.Invocation) {
				if inv.Status == whisk.StatusSuccess {
					results++
				}
			})
		})
	}
	s.Run(2 * time.Minute)
	if results != 5 {
		t.Fatalf("wrapper delivered %d of 5", results)
	}
	// First call hits the primary, 503s, retries to the fallback; the
	// rest (within 60 s cooldown) go straight to the fallback.
	if w.Retries != 1 {
		t.Errorf("retries = %d, want 1", w.Retries)
	}
	if w.PrimaryCalls != 1 {
		t.Errorf("primary calls = %d, want 1", w.PrimaryCalls)
	}
	if fb.calls != 5 {
		t.Errorf("fallback calls = %d, want 5", fb.calls)
	}
}

func TestWrapperRecoversAfterCooldown(t *testing.T) {
	sim := des.New()
	flaky := &flakyBackend{sim: sim, failUntil: 30 * time.Second}
	fb := &fakeBackend{sim: sim, delay: 10 * time.Millisecond}
	w := NewWrapper(sim, flaky, fb)
	var statuses []whisk.Status
	for i := 0; i < 12; i++ {
		at := des.Time(i) * des.Time(15*time.Second)
		sim.Schedule(at, func() {
			w.Invoke("f", func(inv *whisk.Invocation) { statuses = append(statuses, inv.Status) })
		})
	}
	sim.Run()
	for i, st := range statuses {
		if st != whisk.StatusSuccess {
			t.Errorf("call %d status %v", i, st)
		}
	}
	// After the cooldown expires (60 s past the last 503 at ~15 s), the
	// wrapper probes the primary again.
	if flaky.calls < 2 {
		t.Errorf("primary probed %d times, want ≥2 (recovery)", flaky.calls)
	}
}

type flakyBackend struct {
	sim       *des.Sim
	failUntil des.Time
	calls     int
}

func (f *flakyBackend) Invoke(action string, done func(*whisk.Invocation)) {
	f.calls++
	inv := &whisk.Invocation{Submitted: f.sim.Now(), InvokerID: -1}
	status := whisk.StatusSuccess
	if f.sim.Now() < f.failUntil {
		status = whisk.Status503
	}
	f.sim.After(20*time.Millisecond, func() {
		inv.Completed = f.sim.Now()
		inv.Status = status
		if done != nil {
			done(inv)
		}
	})
}

func TestSlurmLoggerSpacing(t *testing.T) {
	s := newSeededSite(8, "fib", 7)
	s.LoadTrace(smallTrace(8, time.Hour, 8, 3))
	s.Start()
	s.Run(time.Hour)
	st := s.Logger.Stats()
	if st.Measurements < 300 {
		t.Fatalf("only %d measurements in an hour", st.Measurements)
	}
	if st.AvgSpacing < 10*time.Second || st.AvgSpacing > 11*time.Second {
		t.Errorf("average spacing = %v, want 10.3-10.7s", st.AvgSpacing)
	}
}

func TestOWStatsShape(t *testing.T) {
	s := newSeededSite(16, "fib", 9)
	s.LoadTrace(smallTrace(16, 2*time.Hour, 10, 5))
	s.Start()
	s.Run(2 * time.Hour)
	o := s.Manager.OWStats(2 * time.Hour)
	if o.HealthyAvg <= 0 {
		t.Errorf("healthy avg = %v, want > 0", o.HealthyAvg)
	}
	if o.WarmupAvg <= 0 || o.WarmupAvg > 1.5 {
		t.Errorf("warming avg = %v, want small but positive", o.WarmupAvg)
	}
	if o.IrrespAvg < 0 || o.IrrespAvg > 1.0 {
		t.Errorf("irresponsive avg = %v, want tiny", o.IrrespAvg)
	}
	if o.ReadySpanAvg <= 0 {
		t.Errorf("ready span avg = %v", o.ReadySpanAvg)
	}
}

func TestWorkerStatesConservation(t *testing.T) {
	ws := NewWorkerStatesStreaming(false)
	ws.Add(0, phaseWarming)
	ws.Move(10*time.Second, phaseWarming, phaseHealthy)
	ws.Move(30*time.Second, phaseHealthy, phaseDraining)
	ws.Remove(40*time.Second, phaseDraining)
	ws.Finish(60 * time.Second)
	if m := ws.Warming.TimeMean(); m < 0.16 || m > 0.17 {
		t.Errorf("warming mean = %v, want 10/60", m)
	}
	if m := ws.Healthy.TimeMean(); m < 0.33 || m > 0.34 {
		t.Errorf("healthy mean = %v, want 20/60", m)
	}
	if got := ws.healthy; got != 0 {
		t.Errorf("healthy now = %d", got)
	}
}

func TestReadySpansRecorded(t *testing.T) {
	s := newSeededSite(8, "fib", 11)
	s.LoadTrace(smallTrace(8, 90*time.Minute, 12, 4))
	s.Start()
	s.Run(90 * time.Minute)
	if s.Manager.Handoffs+s.Manager.KilledInWarmup == 0 {
		t.Skip("no terminations in this window")
	}
	if s.Manager.Handoffs > 0 && s.Manager.ReadySpans.Len() == 0 {
		t.Error("hand-offs happened but no ready spans recorded")
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() string {
		s := newSeededSite(8, "fib", 42)
		s.LoadTrace(smallTrace(8, time.Hour, 43, 4))
		s.Start()
		s.Run(time.Hour)
		return fmt.Sprintf("%d/%d/%d/%d",
			s.Manager.PilotsStarted, s.Manager.Registered,
			s.Slurm.Preempted, len(s.Logger.Entries))
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %s vs %s", a, b)
	}
}
