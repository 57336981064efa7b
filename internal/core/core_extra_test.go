package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// TestWrapperNeverSurfaces503: with a fallback configured, no caller
// ever sees a 503, whatever the primary's availability pattern.
func TestWrapperNeverSurfaces503(t *testing.T) {
	f := func(flaps []uint8) bool {
		sim := des.New()
		fb := &fakeBackend{sim: sim, delay: 5 * time.Millisecond}
		primary := &patternBackend{sim: sim, pattern: flaps}
		w := NewWrapper(sim, primary, fb)
		saw503 := false
		for i := 0; i < 30; i++ {
			sim.Schedule(des.Time(i)*des.Time(7*time.Second), func() {
				w.Invoke("f", func(inv *whisk.Invocation) {
					if inv.Status == whisk.Status503 {
						saw503 = true
					}
				})
			})
		}
		sim.Run()
		return !saw503
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// patternBackend 503s whenever the pattern byte is odd.
type patternBackend struct {
	sim     *des.Sim
	pattern []uint8
	calls   int
}

func (p *patternBackend) Invoke(action string, done func(*whisk.Invocation)) {
	i := p.calls
	p.calls++
	status := whisk.StatusSuccess
	if len(p.pattern) > 0 && p.pattern[i%len(p.pattern)]%2 == 1 {
		status = whisk.Status503
	}
	inv := &whisk.Invocation{Submitted: p.sim.Now(), InvokerID: -1}
	p.sim.After(10*time.Millisecond, func() {
		inv.Completed = p.sim.Now()
		inv.Status = status
		if done != nil {
			done(inv)
		}
	})
}

// TestWrapperWithoutFallbackSurfaces503: no fallback → the caller sees
// the 503 (and no infinite retry loop).
func TestWrapperWithoutFallbackSurfaces503(t *testing.T) {
	sim := des.New()
	primary := &patternBackend{sim: sim, pattern: []uint8{1}}
	w := NewWrapper(sim, primary, nil)
	var got *whisk.Invocation
	w.Invoke("f", func(inv *whisk.Invocation) { got = inv })
	sim.Run()
	if got == nil || got.Status != whisk.Status503 {
		t.Fatalf("got %+v, want surfaced 503", got)
	}
	if w.Retries != 0 {
		t.Errorf("retries = %d without a fallback", w.Retries)
	}
}

// TestWrapperCooldownBoundary: a call exactly at the cooldown edge goes
// back to the primary.
func TestWrapperCooldownBoundary(t *testing.T) {
	sim := des.New()
	fb := &fakeBackend{sim: sim, delay: time.Millisecond}
	primary := &flakyBackend{sim: sim, failUntil: time.Second}
	w := NewWrapper(sim, primary, fb)
	w.Invoke("f", nil) // at t=0: 503 → fallback; cooldown starts ≈t=20ms
	sim.RunUntil(62 * time.Second)
	w.Invoke("f", nil) // > 60s after the 503: probe primary again
	sim.Run()
	if primary.calls != 2 {
		t.Errorf("primary calls = %d, want 2 (probe after cooldown)", primary.calls)
	}
}

// TestVarManagerSubmitsFlexibleSpecs.
func TestVarManagerSubmitsFlexibleSpecs(t *testing.T) {
	s := newSeededSite(4, "var", 21)
	s.LoadTrace(&workload.Trace{Nodes: 4, Horizon: time.Hour})
	s.Start()
	s.Run(time.Minute)
	if got := s.Slurm.QueuedFlexiblePilots(); got != 100 {
		t.Fatalf("queued flexible pilots = %d, want 100", got)
	}
	if byLimit := s.Slurm.QueuedPilotsByLimit(); len(byLimit) != 0 {
		t.Fatalf("flexible jobs leaked into the fixed-length buckets: %v", byLimit)
	}
}

// TestSlurmLevelStatsMath: shares derived from entries are consistent.
func TestSlurmLevelStatsMath(t *testing.T) {
	l := &SlurmLogger{}
	l.Entries = []SlurmLogEntry{
		{At: 0, Idle: 2, Pilot: 8},
		{At: 10 * time.Second, Idle: 0, Pilot: 0},
		{At: 20 * time.Second, Idle: 5, Pilot: 5},
	}
	s := l.Stats()
	if s.Measurements != 3 {
		t.Errorf("measurements = %d", s.Measurements)
	}
	wantUsed := 13.0 / 20.0
	if d := s.ShareUsed - wantUsed; d < -1e-9 || d > 1e-9 {
		t.Errorf("share used = %v, want %v", s.ShareUsed, wantUsed)
	}
	if s.ZeroAvailableStates != 1 || s.ZeroWorkerStates != 1 {
		t.Errorf("zero counts = %d/%d", s.ZeroAvailableStates, s.ZeroWorkerStates)
	}
	if s.AvailableAvg != 20.0/3.0 {
		t.Errorf("available avg = %v", s.AvailableAvg)
	}
}

// TestHandoffWithinGrace: the §III-C drain always finishes well inside
// the 3-minute grace for sleep-style functions, so SIGKILL never fires.
func TestHandoffWithinGrace(t *testing.T) {
	s := newSeededSite(8, "fib", 24)
	tr := smallTrace(8, 2*time.Hour, 25, 4)
	s.LoadTrace(tr)
	s.Ctrl.RegisterAction(&whisk.Action{
		Name: "q", Exec: whisk.FixedExec(200 * time.Millisecond), Interruptible: true,
	})
	tick := s.Sim.Every(time.Second, func() { s.Ctrl.Invoke("q", nil) })
	s.Start()
	s.Run(2 * time.Hour)
	tick.Stop()
	s.Run(5 * time.Minute)
	if s.Manager.Handoffs == 0 {
		t.Skip("no hand-offs this seed")
	}
	if s.Slurm.GracefulEx < s.Manager.Handoffs*9/10 {
		t.Errorf("graceful exits %d vs hand-offs %d: drains exceeding grace",
			s.Slurm.GracefulEx, s.Manager.Handoffs)
	}
}
