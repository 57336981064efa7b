package whisk

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/dist"
)

// constModel builds a checkpoint model with every distribution pinned
// to a constant, so segment boundaries land at predictable times.
func constModel(interval, cost time.Duration, stateMB, bwMBps, overheadSec float64) *checkpoint.Model {
	return &checkpoint.Model{
		Interval:        dist.Constant{Value: interval.Seconds()},
		Cost:            dist.Constant{Value: cost.Seconds()},
		StateMB:         dist.Constant{Value: stateMB},
		BandwidthMBps:   dist.Constant{Value: bwMBps},
		RestoreOverhead: dist.Constant{Value: overheadSec},
	}
}

// TestCheckpointedExecutionCompletes pins the segment chain of an
// undisturbed checkpointed execution: a 3.5 s body with a 1 s interval
// dumps exactly 3 checkpoints (at 1 s, 2 s, 3 s of body work — the
// final boundary completes instead of dumping), pays the dump pause
// each time, and books the full body as goodput.
func TestCheckpointedExecutionCompletes(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	c.RegisterAction(&Action{
		Name: "f", MemoryMB: 256,
		Exec:          FixedExec(3500 * time.Millisecond),
		Interruptible: true,
		Checkpoint:    constModel(time.Second, 100*time.Millisecond, 64, 1000, 0.5),
	})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)

	status := StatusPending
	c.Invoke("f", func(inv *Invocation) { status = inv.Status })
	sim.RunFor(time.Minute)

	if status != StatusSuccess {
		t.Fatalf("status = %v, want success", status)
	}
	if w.Checkpoints != 3 || c.Work.Checkpoints != 3 {
		t.Errorf("checkpoints = %d/%d, want 3/3", w.Checkpoints, c.Work.Checkpoints)
	}
	if c.Work.CheckpointTime != 300*time.Millisecond {
		t.Errorf("checkpoint time = %v, want 300ms", c.Work.CheckpointTime)
	}
	if c.Work.Goodput != 3500*time.Millisecond {
		t.Errorf("goodput = %v, want 3.5s", c.Work.Goodput)
	}
	if c.Work.Resumed != 0 || c.Work.Wasted != 0 || c.Work.Lost != 0 {
		t.Errorf("undisturbed run accounted resume/waste/loss: %+v", c.Work)
	}
}

// TestSigtermResumesFromLastCheckpoint is the end-to-end resume path:
// an interrupted checkpointed execution re-queues through the fast
// lane as a resume token, a successor invoker pays the restore cost,
// continues from the last checkpoint, and the ledger balances — full
// body as goodput, only the torn segment wasted, nothing lost.
func TestSigtermResumesFromLastCheckpoint(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	c.RegisterAction(&Action{
		Name: "f", MemoryMB: 256,
		Exec:          FixedExec(10 * time.Second),
		Interruptible: true,
		Checkpoint:    constModel(time.Second, 100*time.Millisecond, 128, 1000, 0.5),
	})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)

	var resumes int
	status := StatusPending
	c.Invoke("f", func(inv *Invocation) {
		status = inv.Status
		resumes = inv.Resumes
	})
	sim.RunFor(3500 * time.Millisecond) // a few checkpoints in, mid-segment
	w.Sigterm(true, nil)
	if got := c.fastLane.Len(); got != 1 {
		t.Fatalf("fast lane holds %d messages, want the resume token", got)
	}
	if c.Work.Wasted <= 0 || c.Work.Wasted >= time.Second {
		t.Fatalf("wasted = %v, want a partial segment in (0, 1s)", c.Work.Wasted)
	}

	w2 := NewInvoker(DefaultInvokerConfig(), 4)
	c.Register(w2)
	sim.RunFor(time.Minute)

	if status != StatusSuccess {
		t.Fatalf("status = %v, want success", status)
	}
	if resumes != 1 {
		t.Errorf("resumes = %d, want 1", resumes)
	}
	if w2.Resumed != 1 || c.Work.Resumed != 1 {
		t.Errorf("resumed = %d/%d, want 1/1", w2.Resumed, c.Work.Resumed)
	}
	// Restore pays at least transfer (128 MB / 1000 MB/s) + 0.5 s overhead.
	if c.Work.RestoreTime < 628*time.Millisecond {
		t.Errorf("restore time = %v, want ≥ 628ms", c.Work.RestoreTime)
	}
	if c.Work.Goodput != 10*time.Second {
		t.Errorf("goodput = %v, want the full 10s body", c.Work.Goodput)
	}
	if c.Work.Lost != 0 {
		t.Errorf("lost = %v, want 0 — the resume rescued everything", c.Work.Lost)
	}
}

// TestKillLosesProgress: a hard kill destroys checkpointed progress on
// the pilot side — the full elapsed body work lands in Lost.
func TestKillLosesProgress(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	c := NewController(sim, b, DefaultControllerConfig(), 2)
	c.RegisterAction(&Action{
		Name: "f", MemoryMB: 256,
		Exec:          FixedExec(10 * time.Second),
		Interruptible: true,
		Checkpoint:    constModel(time.Second, 100*time.Millisecond, 128, 1000, 0.5),
	})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)

	c.Invoke("f", nil)
	sim.RunFor(3500 * time.Millisecond)
	w.Kill()
	if c.Work.Lost <= 0 {
		t.Errorf("lost = %v, want the killed progress", c.Work.Lost)
	}
	if c.Work.Goodput != 0 {
		t.Errorf("goodput = %v, want 0", c.Work.Goodput)
	}
}

// TestInterruptDuringCheckpointDefersRecycle extends
// TestInterruptOfTimedOutExecution to the checkpoint subsystem: the
// client timeout expires while a checkpointed execution has a segment
// event in flight, then the pilot gets SIGTERM. The interrupt must not
// recycle the pooled invocation — the fast-lane resume token still
// references it — and recycling happens only after the successor's
// dispatch drops that last reference.
func TestInterruptDuringCheckpointDefersRecycle(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = true
	cfg.ActionTimeout = 2 * time.Second
	c := NewController(sim, b, cfg, 2)
	c.RegisterAction(&Action{
		Name: "slow", MemoryMB: 256,
		Exec:          FixedExec(30 * time.Second),
		Interruptible: true,
		Checkpoint:    constModel(time.Second, 100*time.Millisecond, 64, 1000, 0.5),
	})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)

	timedOut := false
	c.Invoke("slow", func(inv *Invocation) { timedOut = inv.Status == StatusTimeout })
	sim.RunFor(10 * time.Second) // past the timeout, several checkpoints in
	if !timedOut {
		t.Fatal("invocation should have timed out")
	}
	if w.Checkpoints == 0 {
		t.Fatal("no checkpoint event ever fired; the test rig is wrong")
	}
	w.Sigterm(true, nil) // segment event in flight — must not recycle mid-loop
	if got := c.fastLane.Len(); got != 1 {
		t.Fatalf("fast lane holds %d messages, want the resume token", got)
	}
	if len(c.invPool) != 0 {
		t.Fatal("invocation recycled while its resume token sits in the fast lane")
	}
	// The successor drains the fast lane; dispatch skips the completed
	// invocation and the token's reference — the last one — recycles it.
	c.Register(NewInvoker(DefaultInvokerConfig(), 4))
	sim.RunFor(time.Minute)
	if c.fastLane.Len() != 0 {
		t.Error("fast lane not drained")
	}
	if len(c.invPool) != 1 {
		t.Errorf("pool size = %d after drain, want 1", len(c.invPool))
	}
}

// TestRecycleResetsResumeToken: a recycled invocation must not leak
// checkpoint state (Progress/StateMB/Resumes) into its next life —
// stale progress would make a fresh invocation start mid-body.
func TestRecycleResetsResumeToken(t *testing.T) {
	sim := des.New()
	b := bus.New[*Invocation](sim, nil, 1)
	cfg := DefaultControllerConfig()
	cfg.PoolInvocations = true
	c := NewController(sim, b, cfg, 2)
	c.RegisterAction(&Action{
		Name: "f", MemoryMB: 256,
		Exec:          FixedExec(3 * time.Second),
		Interruptible: true,
		Checkpoint:    constModel(time.Second, 50*time.Millisecond, 64, 1000, 0.2),
	})
	w := NewInvoker(DefaultInvokerConfig(), 3)
	c.Register(w)

	c.Invoke("f", nil)
	sim.RunFor(time.Minute)
	if len(c.invPool) != 1 {
		t.Fatalf("pool size = %d, want 1", len(c.invPool))
	}
	fresh := c.invoke("f", nil)
	if fresh.Progress != 0 || fresh.StateMB != 0 || fresh.Resumes != 0 {
		t.Errorf("recycled invocation leaked resume state: progress=%v state=%.1fMB resumes=%d",
			fresh.Progress, fresh.StateMB, fresh.Resumes)
	}
	if fresh.bodyTotal != 0 || fresh.segWork != 0 {
		t.Errorf("recycled invocation leaked segment state: body=%v seg=%v",
			fresh.bodyTotal, fresh.segWork)
	}
	sim.RunFor(time.Minute)
}
