package slurm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/workload"
)

// TestSnapshotStaleness: a node turning idle right after a pass starts
// waits for the following pass (the §V-B2 staleness effect).
func TestSnapshotStaleness(t *testing.T) {
	sim := des.New()
	cfg := DefaultConfig()
	cfg.SchedInterval = 30 * time.Second
	cfg.PassBase = 10 * time.Second // long pass: snapshot clearly stale
	cfg.PassPerFixedJob = 0
	e := New(sim, 1, cfg)
	e.AddPartition(Partition{Name: pilotPart, PriorityTier: 0})
	// Node turns idle at 31s: just after the pass that started at 30s
	// took its snapshot.
	e.DriveTrace(oneNodeTrace(workload.IdlePeriod{
		Node: 0, Start: 31 * time.Second, End: 30 * time.Minute, DeclaredEnd: 30 * time.Minute,
	}))
	var started des.Time
	spec := fixedPilot(8 * time.Minute)
	spec.OnStart = func(j *Job) { started = sim.Now() }
	e.Submit(spec)
	e.Start()
	sim.RunUntil(3 * time.Minute)
	if started == 0 {
		t.Fatal("pilot never started")
	}
	// The pass at 30 s misses it (snapshot); the pass at 60 s applies
	// at 70 s.
	if started < 65*time.Second {
		t.Errorf("pilot started at %v, expected to wait for the next pass (≈70s)", started)
	}
}

// TestVarGrantCappedByBackfillWindow: a variable job in a huge window is
// granted at most the backfill window.
func TestVarGrantCappedByBackfillWindow(t *testing.T) {
	sim, e := newEmu(t, 1)
	e.DriveTrace(oneNodeTrace(workload.IdlePeriod{
		Node: 0, Start: 0, End: 4 * time.Hour, DeclaredEnd: 4 * time.Hour,
	}))
	var got *Job
	e.Submit(JobSpec{
		Name: "var", Partition: pilotPart, Nodes: 1,
		TimeMin: 2 * time.Minute, TimeLimit: 6 * time.Hour,
		OnStart: func(j *Job) { got = j },
	})
	e.Start()
	sim.RunUntil(2 * time.Minute)
	if got == nil {
		t.Fatal("variable job not started")
	}
	if got.Granted > 2*time.Hour {
		t.Errorf("granted %v exceeds the 120m backfill window", got.Granted)
	}
}

// TestPrimeClaimPrefersIdle: a prime job claims idle nodes before
// preempting pilots.
func TestPrimeClaimPrefersIdle(t *testing.T) {
	sim := des.New()
	cfg := DefaultConfig()
	cfg.SchedInterval = time.Second
	cfg.PassBase = 10 * time.Millisecond
	e := New(sim, 3, cfg)
	e.AddPartition(Partition{Name: pilotPart, PriorityTier: 0})
	e.AddPartition(Partition{Name: primePart, PriorityTier: 1})
	// One pilot on one node; two idle nodes.
	preempted := false
	e.Submit(JobSpec{
		Name: "pilot", Partition: pilotPart, Nodes: 1, TimeLimit: time.Hour,
		OnSigterm: func(j *Job, at des.Time) { sim.After(time.Second, j.Exit) },
		OnEnd:     func(j *Job, r EndReason) { preempted = preempted || r == ReasonPreempted },
	})
	e.Start()
	sim.RunUntil(30 * time.Second)
	if e.Cluster().Count(cluster.Pilot) != 1 {
		t.Fatalf("pilot count = %d", e.Cluster().Count(cluster.Pilot))
	}
	// A 2-node prime job fits on the two idle nodes.
	e.Submit(JobSpec{
		Name: "prime", Partition: primePart, Nodes: 2,
		TimeLimit: 10 * time.Minute, Runtime: 10 * time.Minute,
	})
	sim.RunUntil(time.Minute)
	if preempted {
		t.Error("prime job preempted a pilot despite idle nodes being available")
	}
	if e.Cluster().Count(cluster.Busy) != 2 {
		t.Errorf("busy = %d, want 2", e.Cluster().Count(cluster.Busy))
	}
}

// TestExitBeforeSigterm: a running pilot may exit voluntarily.
func TestExitBeforeSigterm(t *testing.T) {
	sim, e := newEmu(t, 1)
	e.DriveTrace(oneNodeTrace(workload.IdlePeriod{
		Node: 0, Start: 0, End: time.Hour, DeclaredEnd: time.Hour,
	}))
	var job *Job
	var reason EndReason
	spec := fixedPilot(30 * time.Minute)
	spec.OnStart = func(j *Job) { job = j }
	spec.OnEnd = func(j *Job, r EndReason) { reason = r }
	e.Submit(spec)
	e.Start()
	sim.RunUntil(time.Minute)
	if job == nil {
		t.Fatal("not started")
	}
	job.Exit()
	if reason != ReasonCompleted {
		t.Errorf("reason = %v, want completed", reason)
	}
	if e.Cluster().State(0) != cluster.Idle {
		t.Errorf("node = %v, want idle after voluntary exit", e.Cluster().State(0))
	}
	sim.RunUntil(2 * time.Minute)
}

// TestExitOnPendingIsNoop: Exit on a queued job does nothing.
func TestExitOnPendingIsNoop(t *testing.T) {
	_, e := newEmu(t, 1)
	e.DriveTrace(oneNodeTrace())
	j := e.Submit(fixedPilot(10 * time.Minute))
	j.Exit()
	if j.State != Pending {
		t.Errorf("state = %v, want still pending", j.State)
	}
}

// TestQueueByLimitAfterStart: started jobs leave the by-limit counts.
func TestQueueByLimitAfterStart(t *testing.T) {
	sim, e := newEmu(t, 1)
	e.DriveTrace(oneNodeTrace(workload.IdlePeriod{
		Node: 0, Start: 0, End: time.Hour, DeclaredEnd: time.Hour,
	}))
	e.Submit(fixedPilot(14 * time.Minute))
	e.Submit(fixedPilot(14 * time.Minute))
	e.Start()
	sim.RunUntil(time.Minute)
	if got := e.QueuedPilotsByLimit()[14*time.Minute]; got != 1 {
		t.Errorf("queued 14m jobs = %d, want 1 (one started)", got)
	}
}

// TestPilotQueueBestFitProperty: the pilot queue is an unordered
// slice, so bestFit must return the same job whatever order the
// entries are in. Random fixed and flexible jobs go through
// pilotPush/pilotRemove; before every bestFit the queue is shuffled
// and the pick is checked against a minimum computed independently,
// by sorting the jobs that fit (flexible ones by TimeMin) under
// (priority desc, submit, ID), over random finite windows and an
// infinite one.
func TestPilotQueueBestFitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fits := func(j *Job, window time.Duration) bool {
		if j.Variable() {
			return j.Spec.TimeMin <= window
		}
		return j.Spec.TimeLimit <= window
	}
	want := func(alive []*Job, window time.Duration) *Job {
		var fit []*Job
		for _, j := range alive {
			if fits(j, window) {
				fit = append(fit, j)
			}
		}
		if len(fit) == 0 {
			return nil
		}
		sort.Slice(fit, func(a, b int) bool {
			x, y := fit[a], fit[b]
			if x.Spec.Priority != y.Spec.Priority {
				return x.Spec.Priority > y.Spec.Priority
			}
			if x.Submitted != y.Submitted {
				return x.Submitted < y.Submitted
			}
			return x.ID < y.ID
		})
		return fit[0]
	}
	jobID := func(j *Job) int {
		if j == nil {
			return -1
		}
		return j.ID
	}
	remove := func(e *Emulator, alive []*Job, j *Job, trial int) []*Job {
		if !e.pilotRemove(j) {
			t.Fatalf("trial %d: pilotRemove(job %d) reported it not queued", trial, j.ID)
		}
		if e.pilotRemove(j) {
			t.Fatalf("trial %d: second pilotRemove(job %d) reported it queued", trial, j.ID)
		}
		return slices.DeleteFunc(alive, func(q *Job) bool { return q == j })
	}
	for trial := 0; trial < 200; trial++ {
		e := New(des.New(), 1, DefaultConfig())
		var alive []*Job
		n := 3 + rng.Intn(40)
		for i := 0; i < n; i++ {
			limit := time.Duration(1+rng.Intn(60)) * slot
			spec := JobSpec{Priority: int64(rng.Intn(5)), TimeLimit: limit}
			if rng.Intn(3) == 0 {
				spec.TimeMin = time.Duration(1+rng.Intn(int(limit/slot))) * slot
			}
			j := &Job{ID: i, Submitted: des.Time(rng.Intn(1000)) * des.Time(time.Second), Spec: spec}
			e.pilotPush(j)
			alive = append(alive, j)
		}
		// Remove a random subset.
		for i := 0; i < n/3; i++ {
			alive = remove(e, alive, alive[rng.Intn(len(alive))], trial)
		}
		checkQueueAggregates(t, e, trial)
		for len(alive) > 0 {
			window := time.Duration(rng.Intn(130)) * time.Minute
			if rng.Intn(4) == 0 {
				window = 1000 * time.Hour
			}
			rng.Shuffle(len(e.pilotQueue), func(a, b int) {
				e.pilotQueue[a], e.pilotQueue[b] = e.pilotQueue[b], e.pilotQueue[a]
			})
			got, exp := bestFit(e.pilotQueue, window), want(alive, window)
			if got != exp {
				t.Fatalf("trial %d window %v: bestFit = job %d, want job %d", trial, window, jobID(got), jobID(exp))
			}
			if got == nil {
				got = alive[rng.Intn(len(alive))] // nothing fits; drain another way
			}
			alive = remove(e, alive, got, trial)
			checkQueueAggregates(t, e, trial)
		}
		if e.QueuedPilots() != 0 {
			t.Fatalf("trial %d: %d pilots left queued", trial, e.QueuedPilots())
		}
	}
}

// TestZeroLengthTraceNoIdle: an empty trace keeps every node busy and
// no pilot ever starts.
func TestZeroLengthTraceNoIdle(t *testing.T) {
	sim, e := newEmu(t, 4)
	e.DriveTrace(&workload.Trace{Nodes: 4, Horizon: time.Hour})
	started := false
	spec := fixedPilot(2 * time.Minute)
	spec.OnStart = func(j *Job) { started = true }
	e.Submit(spec)
	e.Start()
	sim.RunUntil(time.Hour)
	if started {
		t.Error("pilot started with no idle windows")
	}
	if e.Cluster().Count(cluster.Busy) != 4 {
		t.Errorf("busy = %d, want 4", e.Cluster().Count(cluster.Busy))
	}
}

// TestBackfillWindowRoundsToSlot: visible windows are slot-aligned.
func TestBackfillWindowRoundsToSlot(t *testing.T) {
	sim, e := newEmu(t, 1)
	// 5-minute declared window → 4-minute usable (2-min slots).
	e.DriveTrace(oneNodeTrace(workload.IdlePeriod{
		Node: 0, Start: 0, End: time.Hour, DeclaredEnd: 5 * time.Minute,
	}))
	var startedLimit time.Duration
	for _, l := range []time.Duration{2, 4} {
		spec := fixedPilot(l * time.Minute)
		spec.OnStart = func(j *Job) {
			if startedLimit == 0 {
				startedLimit = j.Spec.TimeLimit
			}
		}
		e.Submit(spec)
	}
	e.Start()
	sim.RunUntil(time.Minute)
	// Window at pass time ≈ 5m - 16s → rounds to 4m → 4-minute job.
	if startedLimit != 4*time.Minute {
		t.Errorf("started %v, want the 4m job", startedLimit)
	}
}
