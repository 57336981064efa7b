package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/slurm"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// handPolicy submits nothing by itself: the storm and the benchmark
// submit through the manager's env. It counts the pilots that ended,
// by reason, and logs every start and end when log is set.
type handPolicy struct {
	log   *[]string
	ended [3]int // by policy.EndReason
}

func (p *handPolicy) Name() string         { return "hand" }
func (p *handPolicy) Init(*rand.Rand)      {}
func (p *handPolicy) Replenish(policy.Env) {}

func (p *handPolicy) PilotStarted(env policy.Env) {
	if p.log != nil {
		p.note(env, "start")
	}
}

func (p *handPolicy) PilotEnded(env policy.Env, end policy.PilotEnd) {
	p.ended[end.Reason]++
	if p.log != nil {
		p.note(env, "end "+end.Reason.String())
	}
}

func (p *handPolicy) note(env policy.Env, what string) {
	*p.log = append(*p.log, fmt.Sprintf("%v pilot %s: running=%d queued=%d healthy=%d",
		env.Now(), what, env.RunningPilots(), env.QueuedPilots(), env.HealthyInvokers()))
}

// dropFreeList empties the free list its owner keeps in the unexported
// field name, as if nothing had been handed back to it.
func dropFreeList(owner any, name string) {
	f := reflect.ValueOf(owner).Elem().FieldByName(name)
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetZero()
}

// reuseTrace is a churning availability trace: on every node, idle
// windows of 15 s to 12 min (short ones preempt pilots in warm-up)
// between busy spells of 5 s to 3 min, each declaring an end from half
// to twice its actual length.
func reuseTrace(nodes int, horizon time.Duration, r *rand.Rand) *workload.Trace {
	tr := &workload.Trace{Nodes: nodes, Horizon: horizon}
	span := func(lo, hi time.Duration) time.Duration { return lo + time.Duration(r.Int63n(int64(hi-lo))) }
	for n := range nodes {
		at := span(0, 2*time.Minute)
		for {
			end := at + span(15*time.Second, 12*time.Minute)
			if end > horizon {
				break
			}
			declared := at + time.Duration(float64(end-at)*(0.5+1.5*r.Float64()))
			tr.Periods = append(tr.Periods, workload.IdlePeriod{Node: n, Start: at, End: end, DeclaredEnd: declared})
			at = end + span(5*time.Second, 3*time.Minute)
		}
	}
	if err := tr.Validate(); err != nil {
		panic(err)
	}
	return tr
}

// reuseStats counts what a storm run went through.
type reuseStats struct {
	// reused counts the objects seen again in a later life: a job with
	// another ID, a pilot record for another job, an invoker for another
	// pilot or bare registration.
	jobs, records, invokers int

	preempted, expired, warmupKills, drainKills, handoffs, ungraceful int
	checkpoints, resumes                                              int
	wasted, lost                                                      time.Duration
}

// reuseStorm runs a seeded storm over one site's Slurm emulator,
// controller and pilot manager, and returns its completion and
// pilot-event log. Ops submit fixed and flexible pilots (2 to 8 min, so
// limits expire), cancel queued ones, invoke four actions (short,
// atomic, minutes-long atomic ones that outlive a SIGTERM's grace, and
// checkpointed ones), register, SIGTERM and kill bare invokers on the
// same controller, and advance the clock, over a churning trace whose
// reclaims preempt pilots, some in warm-up. Seeds 4 and 8 kill on
// SIGTERM (the ablation), the others hand off gracefully, odd seeds
// interrupting running executions. The manager hands back each ended
// pilot's record, job and invoker; after every op the storm hands back
// each bare invoker that has gone, its drain hop pending or not. With
// fresh set, every free list (the manager's, the emulator's and the
// controller's) is emptied after every op.
func reuseStorm(t *testing.T, seed int64, fresh bool) ([]string, reuseStats) {
	t.Helper()
	const (
		nodes   = 6
		horizon = 40 * time.Minute
	)
	var log []string
	r := rand.New(rand.NewSource(seed))
	pol := &handPolicy{log: &log}
	cfg := DefaultSystemConfig(nodes, "fib")
	cfg.Seed = seed
	cfg.Manager = ManagerConfig{Policy: pol, GracefulHandoff: seed%4 != 0, InterruptRunning: seed%2 == 1}
	s := NewSite(des.New(), cfg)
	s.LoadTrace(reuseTrace(nodes, horizon+time.Hour, r))
	m, ctrl, emu := s.Manager, s.Ctrl, s.Slurm
	env := managerEnv{m}

	for _, a := range []*whisk.Action{
		{Name: "short", Exec: whisk.DistExec(dist.Uniform{Lo: 0.01, Hi: 0.3}), Interruptible: true},
		{Name: "atomic", Exec: whisk.DistExec(dist.Uniform{Lo: 0.1, Hi: 3})},
		{Name: "ckpt", Exec: whisk.DistExec(dist.Uniform{Lo: 2, Hi: 20}), Interruptible: true,
			Checkpoint: checkpoint.WithInterval(time.Second)},
		{Name: "long", Exec: whisk.DistExec(dist.Uniform{Lo: 60, Hi: 300})},
	} {
		a.MemoryMB = 256
		ctrl.RegisterAction(a)
	}
	// Calls by weight: one in ten runs minutes, past a SIGTERM's grace.
	calls := []string{"short", "short", "short", "short", "atomic", "atomic", "atomic", "ckpt", "ckpt", "long"}
	logDone := func(inv *whisk.Invocation) {
		log = append(log, fmt.Sprintf("%d %s %v sub=%v rt=%v ex=%v cp=%v rq=%d inv=%d cold=%v prog=%v res=%d",
			inv.ID, inv.Action.Name, inv.Status, inv.Submitted, inv.Routed, inv.Executed,
			inv.Completed, inv.Requeues, inv.InvokerID, inv.ColdStart, inv.Progress, inv.Resumes))
	}

	var st reuseStats
	seen := map[any]int64{}
	sight := func(obj any, life int64, reused *int) {
		if was, ok := seen[obj]; ok && was != life {
			*reused++
		}
		seen[obj] = life
	}
	var bare []*whisk.Invoker
	bareLives := int64(0)
	icfg := whisk.DefaultInvokerConfig()
	icfg.BufferLimit = 8

	s.Start()
	for op := 0; s.Sim.Now() < horizon; op++ {
		switch k := r.Intn(20); {
		case k < 7:
			ctrl.Invoke(calls[r.Intn(len(calls))], logDone)
		case k < 9:
			if env.QueuedPilots() < 10 {
				limit := time.Duration(2+2*r.Intn(4)) * time.Minute
				env.SubmitFixed(limit, int64(limit/time.Minute))
			}
		case k < 10:
			if env.QueuedPilots() < 10 {
				env.SubmitFlexible(2*time.Minute, time.Duration(4+4*r.Intn(2))*time.Minute)
			}
		case k < 11:
			env.CancelQueued(1)
		case k < 13:
			w := ctrl.NewInvoker(icfg, r.Int63())
			ctrl.Register(w)
			bareLives++
			sight(w, -bareLives, &st.invokers)
			bare = append(bare, w)
		case k < 16:
			var up []*whisk.Invoker
			for _, w := range bare {
				if w.State() == whisk.InvokerHealthy {
					up = append(up, w)
				}
			}
			if len(up) > 0 {
				if w := up[r.Intn(len(up))]; k < 15 {
					w.Sigterm(r.Intn(2) == 0, nil)
				} else {
					w.Kill()
				}
			}
		default:
			s.Sim.RunFor(time.Duration(r.Int63n(int64(3 * time.Second))))
		}
		bare = slices.DeleteFunc(bare, func(w *whisk.Invoker) bool {
			if w.State() != whisk.InvokerGone {
				return false
			}
			ctrl.Release(w)
			return true
		})
		for _, j := range m.pending {
			sight(j, int64(j.ID), &st.jobs)
		}
		for j, p := range m.pilots {
			sight(j, int64(j.ID), &st.jobs)
			sight(p, int64(j.ID), &st.records)
			if p.invoker != nil {
				sight(p.invoker, int64(j.ID), &st.invokers)
			}
		}
		log = append(log, fmt.Sprintf("op %d %v: submitted=%d started=%d registered=%d handoffs=%d warmkills=%d ungraceful=%d "+
			"emu started=%d preempted=%d cancelled=%d graceful=%d ctrl registers=%d healthy=%d draining=%d queue=%d fast=%d",
			op, s.Sim.Now(), m.Submitted, m.PilotsStarted, m.Registered, m.Handoffs, m.KilledInWarmup, m.KilledUngraceful,
			emu.Started, emu.Preempted, emu.Cancelled, emu.GracefulEx,
			ctrl.Registers, ctrl.HealthyCount(), ctrl.DrainingCount(), ctrl.QueueDepth(), ctrl.FastLaneDepth()))
		if fresh {
			m.spare = nil
			dropFreeList(emu, "spare")
			dropFreeList(ctrl, "spare")
		}
	}
	// Let every pilot end: nothing queued starts, and the longest limit,
	// its grace and the exit pass within 15 minutes.
	env.CancelQueued(len(m.pending))
	for _, w := range bare {
		w.Kill()
		ctrl.Release(w)
	}
	s.Sim.RunFor(15 * time.Minute)
	if len(m.pilots) != 0 || len(m.pending) != 0 {
		t.Fatalf("%d pilots running and %d queued after the storm drained", len(m.pilots), len(m.pending))
	}
	if c := ctrl; c.Total != c.NSuccess+c.NFailed+c.NTimeout+c.N503 {
		t.Fatalf("storm leaked invocations: total=%d completed=%d", c.Total, c.NSuccess+c.NFailed+c.NTimeout+c.N503)
	}
	st.preempted = emu.Preempted
	st.expired = pol.ended[policy.EndExpired]
	st.warmupKills = m.KilledInWarmup
	st.handoffs = m.Handoffs
	st.ungraceful = m.KilledUngraceful
	// Every SIGTERM of a started pilot is a warm-up kill, a hard kill or
	// a hand-off, and each exits voluntarily unless SIGKILL ends its
	// drain.
	st.drainKills = m.KilledInWarmup + m.KilledUngraceful + m.Handoffs - emu.GracefulEx
	st.wasted, st.lost = ctrl.Work.Wasted, ctrl.Work.Lost
	st.checkpoints = ctrl.Work.Checkpoints
	st.resumes = ctrl.Work.Resumed
	return log, st
}

// TestPilotReuseStormMatchesFresh pins the hand-back of finished
// pilots' records, jobs and invokers to building them fresh: the storm
// above, run with every free list as it is and with every free list
// emptied after every op, must give identical completion and
// pilot-event logs over 8 seeds. An object reused while something still
// refers to it — a pilot record or job whose delayed exit is pending,
// an invoker whose drain hop is pending — acts for two lives at once,
// and the logs diverge. Guards require every seed to reuse jobs,
// records and invokers, and the seeds together to reach every path the
// hand-back must survive.
func TestPilotReuseStormMatchesFresh(t *testing.T) {
	var total reuseStats
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fresh, fst := reuseStorm(t, seed, true)
			handed, st := reuseStorm(t, seed, false)
			t.Logf("reused %d jobs, %d records, %d invokers (%d, %d, %d with free lists emptied); %+v",
				st.jobs, st.records, st.invokers, fst.jobs, fst.records, fst.invokers, st)
			if st.jobs == 0 || st.records == 0 || st.invokers == 0 {
				t.Fatalf("reused %d jobs, %d pilot records and %d invokers — the comparison would be vacuous",
					st.jobs, st.records, st.invokers)
			}
			if len(fresh) != len(handed) {
				t.Errorf("logs hold %d lines fresh and %d with hand-back", len(fresh), len(handed))
			}
			for i := range min(len(fresh), len(handed)) {
				if fresh[i] != handed[i] {
					t.Fatalf("line %d diverged:\nfresh:     %s\nhand-back: %s", i, fresh[i], handed[i])
				}
			}
			total.preempted += st.preempted
			total.expired += st.expired
			total.warmupKills += st.warmupKills
			total.drainKills += st.drainKills
			total.handoffs += st.handoffs
			total.ungraceful += st.ungraceful
			total.wasted += st.wasted
			total.lost += st.lost
			total.checkpoints += st.checkpoints
			total.resumes += st.resumes
		})
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"preempted pilots", total.preempted},
		{"expired limits", total.expired},
		{"SIGTERMs in warm-up", total.warmupKills},
		{"SIGKILLs mid-drain", total.drainKills},
		{"graceful hand-offs", total.handoffs},
		{"ungraceful kills", total.ungraceful},
		{"interrupted checkpointed executions", int(total.wasted)},
		{"executions lost to interrupts and kills", int(total.lost)},
		{"checkpoints", total.checkpoints},
		{"resumes", total.resumes},
	} {
		if c.n == 0 {
			t.Errorf("the storms reached no %s", c.what)
		}
	}
}

// BenchmarkPilotLifecycle is one whole pilot on a one-node cluster:
// submit, start, warm-up, register, one call, SIGTERM at its 4-minute
// limit, drain, exit. Each ended pilot hands its record, job and
// invoker back, and the next reuses them, so the steady state
// allocates nothing.
func BenchmarkPilotLifecycle(b *testing.B) {
	sim := des.New()
	emu := slurm.New(sim, 1, slurm.DefaultConfig())
	emu.AddPartition(slurm.Partition{Name: pilotPartition})
	ccfg := whisk.DefaultControllerConfig()
	ccfg.PoolInvocations = true
	ctrl := whisk.NewController(sim, bus.New[*whisk.Invocation](sim, nil, 1), ccfg, 2)
	ctrl.RegisterAction(&whisk.Action{Name: "f", MemoryMB: 256, Exec: whisk.FixedExec(10 * time.Millisecond)})
	pol := &handPolicy{}
	m := newPilotManager(emu, ctrl, ManagerConfig{Policy: pol, GracefulHandoff: true, InterruptRunning: true}, 3, true)
	m.Start()
	emu.Start()
	env := managerEnv{m}
	life := func() {
		registered, ended := m.Registered, pol.ended
		env.SubmitFixed(4*time.Minute, 4)
		for m.Registered == registered {
			sim.Step()
		}
		ctrl.Invoke("f", nil)
		for pol.ended == ended {
			sim.Step()
		}
	}
	for range 100 { // the des, invocation and stats storage
		life()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		life()
	}
	b.StopTimer()
	if pol.ended[policy.EndExpired] != b.N+100 || ctrl.NSuccess+ctrl.NFailed != b.N+100 {
		b.Fatalf("%d pilots expired and %d calls completed, want %d each",
			pol.ended[policy.EndExpired], ctrl.NSuccess+ctrl.NFailed, b.N+100)
	}
}
