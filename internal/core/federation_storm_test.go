package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// stormTrace generates a high-churn availability trace: short
// contended/calm alternation so pilots register and get killed every
// few simulated minutes — a register/kill storm at the §III-B layer.
func stormTrace(nodes int, horizon time.Duration, seed int64) *workload.Trace {
	cfg := workload.DefaultIdleProcess(nodes, horizon, seed)
	cfg.MeanIdleNodes = 4
	cfg.ContendedMean = 7 * time.Minute
	cfg.CalmMean = 5 * time.Minute
	return cfg.Generate()
}

// stormArrivals pre-generates a bursty invoke storm as a pure function
// of the seed: exponential inter-arrivals whose rate switches between
// a base trickle and 15× bursts, with continuous instants so no
// arrival collides with any grid the simulation populates.
type stormArrival struct {
	at     time.Duration
	action int
}

func stormArrivals(horizon time.Duration, seed int64, actions int) []stormArrival {
	r := rand.New(rand.NewSource(seed))
	var out []stormArrival
	at := time.Duration(0)
	for at < horizon {
		rate := 3.0 // per second
		if int(at/(2*time.Minute))%3 == 2 {
			rate *= 15 // storm phase every third 2-minute block
		}
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		out = append(out, stormArrival{at: at, action: r.Intn(actions)})
	}
	return out
}

// TestFederationStormShardedEventLog is the randomized-storm property
// test of a federation's run loop: a 5-site federation under
// register/kill storms (high-churn traces) and invoke storms (bursty
// arrivals) must produce a byte-identical per-completion event log —
// outcome, all timestamps, cold-start, requeue and resume history,
// checkpointed progress, in completion order — and equal per-site work
// ledgers, whether one Run advances it over the whole horizon or
// RunCtx advances it in DefaultEpoch chunks, the path every federated
// scenario takes, across several seeds. Every scheduled arrival must
// complete exactly once in both. Odd sites time requests out after
// shortTimeout, the others after the 60 s default, so the plane's wheel
// holds timeouts of two delays; every seed's log must hold timeouts, so
// timeouts that fire are compared, not only stopped ones.
// Every sixth action checkpoints a body several checkpoint intervals
// long, so segment events, resume tokens and the ledger cross chunk
// boundaries too; some seed must record both a checkpoint and a
// resume.
func TestFederationStormShardedEventLog(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping federation storm replay")
	}
	const (
		sites        = 5
		horizon      = 12 * time.Minute
		nAct         = 12
		shortTimeout = 2 * time.Second
		ckptBody     = time.Second
		ckptInterval = 200 * time.Millisecond
	)
	actions := make([]string, nAct)
	for i := range actions {
		actions[i] = fmt.Sprintf("storm-%02d", i)
	}

	replay := func(seed int64, chunked bool) ([]string, []stats.WorkCounters) {
		base := DefaultSystemConfig(24, "fib")
		base.Seed = seed
		cfg := UniformFederationConfig(sites, base)
		for i := 1; i < sites; i += 2 {
			cfg.Sites[i].Controller.ActionTimeout = shortTimeout
		}
		fed := NewFederation(cfg)
		troot := dist.NewRand(seed + 101)
		for i := range fed.Sites {
			fed.LoadTrace(i, stormTrace(24, horizon, troot.Int63()))
		}
		for i, n := range actions {
			a := &whisk.Action{Name: n, MemoryMB: 256,
				Exec: whisk.FixedExec(15 * time.Millisecond), Interruptible: true}
			if i%6 == 0 {
				a.Exec = whisk.FixedExec(ckptBody)
				a.Checkpoint = checkpoint.WithInterval(ckptInterval)
			}
			fed.RegisterAction(a)
		}

		var log []string
		arrivals := stormArrivals(horizon, seed+202, nAct)
		completed := make([]int, len(arrivals))
		for k, a := range arrivals {
			action := actions[a.action]
			fed.Sim.Schedule(a.at, func() {
				fed.Invoke(action, func(inv *whisk.Invocation) {
					completed[k]++
					log = append(log, fmt.Sprintf("%s %v sub=%d done=%d cold=%v req=%d inv=%d prog=%d res=%d",
						inv.Action.Name, inv.Status, int64(inv.Submitted), int64(inv.Completed),
						inv.ColdStart, inv.Requeues, inv.InvokerID, int64(inv.Progress), inv.Resumes))
				})
			})
		}
		fed.Start()
		if chunked {
			if err := fed.RunCtx(context.Background(), horizon+5*time.Minute, nil); err != nil {
				t.Fatalf("seed %d: chunked run: %v", seed, err)
			}
		} else {
			fed.Run(horizon + 5*time.Minute)
		}
		for k, n := range completed {
			if n != 1 {
				t.Fatalf("seed %d chunked=%v: arrival %d at %v completed %d times, want once",
					seed, chunked, k, arrivals[k].at, n)
			}
		}
		work := make([]stats.WorkCounters, len(fed.Sites))
		for i, site := range fed.Sites {
			work[i] = site.Ctrl.Work
		}
		return log, work
	}

	resumed := false // some seed both checkpointed and resumed
	for _, seed := range []int64{3, 17, 29} {
		whole, wholeWork := replay(seed, false)
		if len(whole) == 0 {
			t.Fatalf("seed %d: storm produced no completions", seed)
		}
		timeouts := 0
		for _, line := range whole {
			if strings.Contains(line, " timeout ") {
				timeouts++
			}
		}
		var ckpts, resumes int
		for _, w := range wholeWork {
			ckpts += w.Checkpoints
			resumes += w.Resumed
		}
		resumed = resumed || (ckpts > 0 && resumes > 0)
		t.Logf("seed %d: %d of %d completions timed out; %d checkpoints, %d resumes",
			seed, timeouts, len(whole), ckpts, resumes)
		if timeouts == 0 {
			t.Errorf("seed %d: no request timed out, so no timeout fired", seed)
		}
		chunks, chunkWork := replay(seed, true)
		if len(whole) != len(chunks) {
			t.Fatalf("seed %d: %d completions chunked vs %d whole", seed, len(chunks), len(whole))
		}
		for i := range whole {
			if whole[i] != chunks[i] {
				t.Fatalf("seed %d: event %d diverged\n  whole:   %s\n  chunked: %s",
					seed, i, whole[i], chunks[i])
			}
		}
		for i := range wholeWork {
			if wholeWork[i] != chunkWork[i] {
				t.Errorf("seed %d: site %d work ledger diverged\n  whole:   %+v\n  chunked: %+v",
					seed, i, wholeWork[i], chunkWork[i])
			}
		}
	}
	if !resumed {
		t.Error("no seed recorded both a checkpoint and a resume, so resumes went unchecked")
	}
}
