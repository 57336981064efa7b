package core

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/lambda"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// TestWrapperNoHealthyInvokerNoFallback drives Alg. 1 through a real
// deployment that never gets an invoker (empty availability trace) and
// no fallback configured: the controller's 503 must surface to the
// caller unchanged — once per call, with no retry loop and no
// fallback accounting.
func TestWrapperNoHealthyInvokerNoFallback(t *testing.T) {
	sys := newSite(DefaultSystemConfig(4, "fib"))
	sys.LoadTrace(&workload.Trace{Nodes: 4, Horizon: time.Hour}) // no idle periods: no pilots, no invokers
	sys.Ctrl.RegisterAction(&whisk.Action{Name: "f", MemoryMB: 256, Exec: whisk.FixedExec(time.Millisecond)})
	w := NewWrapper(sys.Sim, sys.Ctrl, nil)
	sys.Start()

	// The wired deployment pools invocations, so the callback copies the
	// status instead of retaining the (recyclable) invocation pointer.
	var got []whisk.Status
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * time.Minute
		sys.Sim.Schedule(at, func() {
			w.Invoke("f", func(inv *whisk.Invocation) { got = append(got, inv.Status) })
		})
	}
	sys.Run(time.Hour)

	if len(got) != 3 {
		t.Fatalf("%d completions, want 3", len(got))
	}
	for i, st := range got {
		if st != whisk.Status503 {
			t.Errorf("call %d status %v, want 503 surfaced", i, st)
		}
	}
	if w.PrimaryCalls != 3 || w.FallbackCalls != 0 || w.Retries != 0 {
		t.Errorf("counters primary=%d fallback=%d retries=%d, want 3/0/0",
			w.PrimaryCalls, w.FallbackCalls, w.Retries)
	}
}

// statusBackend completes every invocation with a fixed status after a
// delay.
type statusBackend struct {
	sim    *des.Sim
	status whisk.Status
	delay  time.Duration
	calls  int
}

func (b *statusBackend) Invoke(action string, done func(*whisk.Invocation)) {
	b.calls++
	inv := &whisk.Invocation{Submitted: b.sim.Now(), InvokerID: -1}
	b.sim.After(b.delay, func() {
		inv.Completed = b.sim.Now()
		inv.Status = b.status
		if done != nil {
			done(inv)
		}
	})
}

// TestWrapperFallbackFailurePropagates pins the failure path of the
// off-loading branch: when the primary 503s and the *fallback* then
// fails, the failure reaches the caller as-is — Alg. 1 retries 503s,
// not fallback errors — and the wrapper neither loops nor re-probes
// the primary for it.
func TestWrapperFallbackFailurePropagates(t *testing.T) {
	for _, status := range []whisk.Status{whisk.StatusFailed, whisk.StatusTimeout} {
		sim := des.New()
		primary := &statusBackend{sim: sim, status: whisk.Status503, delay: 10 * time.Millisecond}
		fb := &statusBackend{sim: sim, status: status, delay: 5 * time.Millisecond}
		w := NewWrapper(sim, primary, fb)

		var got *whisk.Invocation
		w.Invoke("f", func(inv *whisk.Invocation) { got = inv })
		sim.Run()

		if got == nil || got.Status != status {
			t.Fatalf("status %s: got %+v, want the fallback failure propagated", status, got)
		}
		if primary.calls != 1 || fb.calls != 1 {
			t.Errorf("status %s: primary=%d fallback=%d calls, want 1/1 (no retry of a fallback failure)",
				status, primary.calls, fb.calls)
		}
		if w.Retries != 1 {
			t.Errorf("status %s: retries=%d, want 1 (the 503 retry only)", status, w.Retries)
		}

		// Within the cooldown a second call must go straight to the
		// (still failing) fallback and surface that failure too.
		w.Invoke("f", func(inv *whisk.Invocation) { got = inv })
		sim.Run()
		if got == nil || got.Status != status {
			t.Fatalf("status %s: cooldown call got %+v, want fallback failure", status, got)
		}
		if primary.calls != 1 || fb.calls != 2 {
			t.Errorf("status %s: after cooldown call primary=%d fallback=%d, want 1/2",
				status, primary.calls, fb.calls)
		}
	}
}

// TestWrapperRetryLatencySpansFullChain pins the client-observed
// latency semantics of a retried call: Alg. 1 hides the retry, so
// Completed−Submitted on the invocation handed to done must cover the
// whole chain from the original submission — including the primary's
// 503 round trip — not just the fallback leg. (Clients compute latency
// from those fields since the request path stopped allocating a
// per-request closure; the wrapper back-dates retried invocations to
// keep the measurement unchanged.)
func TestWrapperRetryLatencySpansFullChain(t *testing.T) {
	sim := des.New()
	primary := &statusBackend{sim: sim, status: whisk.Status503, delay: 20 * time.Millisecond}
	fb := &statusBackend{sim: sim, status: whisk.StatusSuccess, delay: 30 * time.Millisecond}
	w := NewWrapper(sim, primary, fb)

	issue := 5 * time.Millisecond
	var sub, comp time.Duration
	sim.Schedule(issue, func() {
		w.Invoke("f", func(inv *whisk.Invocation) {
			sub, comp = inv.Submitted, inv.Completed
		})
	})
	sim.Run()

	if sub != issue {
		t.Errorf("Submitted = %v, want the original issue instant %v", sub, issue)
	}
	if want := issue + 20*time.Millisecond + 30*time.Millisecond; comp != want {
		t.Errorf("Completed = %v, want %v (503 round trip + fallback leg)", comp, want)
	}
}

// TestWrapperResumesTimeoutOnCloud pins the checkpoint extension of
// Alg. 1: a checkpointed execution whose client-visible timeout expires
// with durable progress continues on the commercial cloud from its last
// checkpoint — the caller sees one successful invocation back-dated to
// the original submission, never the timeout. With the gate off (the
// default) the same run surfaces the timeout unchanged.
func TestWrapperResumesTimeoutOnCloud(t *testing.T) {
	run := func(resumeTimeouts bool) (whisk.Status, int, *Wrapper, *lambda.Client, *whisk.Controller) {
		sim := des.New()
		b := bus.New[*whisk.Invocation](sim, nil, 1)
		cfg := whisk.DefaultControllerConfig()
		cfg.ActionTimeout = 2 * time.Second
		ctrl := whisk.NewController(sim, b, cfg, 2)
		ctrl.RegisterAction(&whisk.Action{
			Name: "f", MemoryMB: 256,
			Exec:          whisk.FixedExec(30 * time.Second),
			Interruptible: true,
			Checkpoint: &checkpoint.Model{
				Interval:        dist.Constant{Value: 1},
				Cost:            dist.Constant{Value: 0.1},
				StateMB:         dist.Constant{Value: 64},
				BandwidthMBps:   dist.Constant{Value: 1000},
				RestoreOverhead: dist.Constant{Value: 0.5},
			},
		})
		ctrl.Register(whisk.NewInvoker(whisk.DefaultInvokerConfig(), 3))
		fb := lambda.NewClient(sim, lambda.DefaultClientConfig(), 4)
		w := NewWrapper(sim, ctrl, fb)
		w.ResumeTimeouts = resumeTimeouts

		status, resumes := whisk.StatusPending, 0
		w.Invoke("f", func(inv *whisk.Invocation) { status, resumes = inv.Status, inv.Resumes })
		sim.RunFor(5 * time.Minute)
		return status, resumes, w, fb, ctrl
	}

	status, resumes, w, fb, ctrl := run(true)
	if status != whisk.StatusSuccess {
		t.Fatalf("status = %v, want the cloud resume to succeed", status)
	}
	if resumes != 1 {
		t.Errorf("resumes = %d, want 1", resumes)
	}
	if w.CloudResumes != 1 || fb.Resumes != 1 || ctrl.Work.CloudResumes != 1 {
		t.Errorf("cloud resumes wrapper=%d client=%d ledger=%d, want 1/1/1",
			w.CloudResumes, fb.Resumes, ctrl.Work.CloudResumes)
	}

	status, _, w, fb, _ = run(false)
	if status != whisk.StatusTimeout {
		t.Fatalf("gated off: status = %v, want the timeout surfaced", status)
	}
	if w.CloudResumes != 0 || fb.Resumes != 0 {
		t.Errorf("gated off: cloud resumes wrapper=%d client=%d, want 0/0", w.CloudResumes, fb.Resumes)
	}
}

// TestWrapperResumeBackDatesSubmission pins the latency semantics of a
// cloud resume: like the 503 retry, the resumed invocation's Submitted
// is back-dated to the original submission so Completed−Submitted spans
// the stranded cluster attempt plus the cloud leg.
func TestWrapperResumeBackDatesSubmission(t *testing.T) {
	sim := des.New()
	b := bus.New[*whisk.Invocation](sim, nil, 1)
	cfg := whisk.DefaultControllerConfig()
	cfg.ActionTimeout = 2 * time.Second
	ctrl := whisk.NewController(sim, b, cfg, 2)
	ctrl.RegisterAction(&whisk.Action{
		Name: "f", MemoryMB: 256,
		Exec:          whisk.FixedExec(30 * time.Second),
		Interruptible: true,
		Checkpoint: &checkpoint.Model{
			Interval:        dist.Constant{Value: 1},
			Cost:            dist.Constant{Value: 0.1},
			StateMB:         dist.Constant{Value: 64},
			BandwidthMBps:   dist.Constant{Value: 1000},
			RestoreOverhead: dist.Constant{Value: 0.5},
		},
	})
	ctrl.Register(whisk.NewInvoker(whisk.DefaultInvokerConfig(), 3))
	w := NewWrapper(sim, ctrl, lambda.NewClient(sim, lambda.DefaultClientConfig(), 4))
	w.ResumeTimeouts = true

	issue := 7 * time.Second
	var sub, comp time.Duration
	sim.Schedule(issue, func() {
		w.Invoke("f", func(inv *whisk.Invocation) { sub, comp = inv.Submitted, inv.Completed })
	})
	sim.RunFor(10 * time.Minute)

	if sub != issue {
		t.Errorf("Submitted = %v, want the original issue instant %v", sub, issue)
	}
	// The chain is at least the 2 s cluster timeout plus the remaining
	// body on the cloud (< full 30 s — the resume skipped completed work).
	if comp-sub <= 2*time.Second || comp-sub >= 40*time.Second {
		t.Errorf("client-observed latency = %v, want timeout + cloud leg", comp-sub)
	}
}
