package slurm

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
)

// Full-scheduler mode: prime jobs submitted to tier ≥1 partitions are
// scheduled by an EASY backfill pass. Pilot jobs remain strictly
// subordinate: a prime job preempts pilots on the nodes it claims, and
// pilot placement respects the head-of-queue reservation so pilots never
// delay a prime job (§III-D: "Slurm never allots a job with a lower
// priority tier if it would delay any job with a higher priority tier").

// reservation records the head job's planned start: the shadow time and
// the specific currently-available nodes the plan relies on.
type reservation struct {
	shadow des.Time
	nodes  map[int]bool
}

// schedulePrime runs one EASY backfill pass over the prime queue.
func (e *Emulator) schedulePrime() {
	e.headReservation = reservation{}
	if len(e.primeQueue) == 0 {
		return
	}
	now := e.sim.Now()
	sort.SliceStable(e.primeQueue, func(i, j int) bool {
		a, b := e.primeQueue[i], e.primeQueue[j]
		if a.Spec.Priority != b.Spec.Priority {
			return a.Spec.Priority > b.Spec.Priority
		}
		return a.Submitted < b.Submitted
	})

	// Start jobs from the head while they fit.
	for len(e.primeQueue) > 0 {
		head := e.primeQueue[0]
		nodes := e.claimableNodes(head.Spec.Nodes, nil)
		if nodes == nil {
			break
		}
		e.primeQueue = e.primeQueue[1:]
		e.startPrime(head, nodes)
	}
	if len(e.primeQueue) == 0 {
		return
	}

	// Head does not fit: compute its reservation against running prime
	// jobs' declared ends, then backfill later jobs around it.
	head := e.primeQueue[0]
	shadow, needFromNow := e.computeShadow(head.Spec.Nodes, now)
	avail := e.availableNow()
	reserved := map[int]bool{}
	for i := 0; i < needFromNow && i < len(avail); i++ {
		reserved[avail[i]] = true
	}
	e.headReservation = reservation{shadow: shadow, nodes: reserved}

	for i := 1; i < len(e.primeQueue); i++ {
		j := e.primeQueue[i]
		if j.Spec.Nodes > len(avail) {
			continue
		}
		fitsBeforeShadow := now+j.Spec.TimeLimit <= shadow
		sparesReserved := j.Spec.Nodes <= len(avail)-needFromNow
		if !fitsBeforeShadow && !sparesReserved {
			continue
		}
		avoid := reserved
		if fitsBeforeShadow {
			avoid = nil
		}
		pick := e.claimableNodes(j.Spec.Nodes, avoid)
		if pick == nil {
			continue
		}
		e.primeQueue = append(e.primeQueue[:i], e.primeQueue[i+1:]...)
		i--
		e.startPrime(j, pick)
		avail = e.availableNow()
		for n := range reserved {
			if !e.isAvailable(n) {
				delete(reserved, n)
			}
		}
	}
}

func (e *Emulator) startPrime(j *Job, nodes []int) {
	// Preempt any pilots on the claimed nodes.
	for _, n := range nodes {
		if p := e.runningByNode[n]; p != nil {
			e.sigterm(p, ReasonPreempted)
			e.detach(p)
		}
	}
	e.startJob(j, nodes, j.Spec.TimeLimit, cluster.Busy)
}

// availableNow lists nodes usable by a prime job right now: idle nodes
// plus nodes running preemptible pilots, sorted ascending.
func (e *Emulator) availableNow() []int {
	out := append([]int(nil), e.cl.Nodes(cluster.Idle)...)
	out = append(out, e.cl.Nodes(cluster.Pilot)...)
	sort.Ints(out)
	return out
}

func (e *Emulator) isAvailable(n int) bool {
	s := e.cl.State(n)
	return s == cluster.Idle || s == cluster.Pilot
}

// claimableNodes picks n nodes for a prime job outside the avoid set,
// preferring idle nodes over pilot-occupied ones (fewer preemptions),
// lowest ids first. Returns nil if not enough nodes are available.
func (e *Emulator) claimableNodes(n int, avoid map[int]bool) []int {
	idle := append([]int(nil), e.cl.Nodes(cluster.Idle)...)
	pilot := append([]int(nil), e.cl.Nodes(cluster.Pilot)...)
	if len(idle)+len(pilot) < n {
		return nil
	}
	sort.Ints(idle)
	sort.Ints(pilot)
	out := make([]int, 0, n)
	for _, set := range [][]int{idle, pilot} {
		for _, id := range set {
			if len(out) == n {
				return out
			}
			if !avoid[id] {
				out = append(out, id)
			}
		}
	}
	if len(out) == n {
		return out
	}
	return nil
}

// computeShadow walks the running prime jobs' declared ends to find the
// earliest instant when `need` nodes are available, and how many of the
// currently-available nodes the plan relies on.
func (e *Emulator) computeShadow(need int, now des.Time) (shadow des.Time, needFromNow int) {
	avail := len(e.availableNow())
	if avail >= need {
		return now, need
	}
	type end struct {
		at    des.Time
		nodes int
	}
	var ends []end
	seen := map[*Job]bool{}
	for _, j := range e.runningByNode {
		if j == nil || seen[j] || e.cl.State(j.NodeIDs[0]) != cluster.Busy {
			continue
		}
		seen[j] = true
		ends = append(ends, end{at: j.Started + j.Granted, nodes: len(j.NodeIDs)})
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].at < ends[j].at })
	have := avail
	for _, en := range ends {
		have += en.nodes
		if have >= need {
			return en.at, avail
		}
	}
	// Not satisfiable from declared info: plan at the backfill horizon.
	return now + backfillWindow, avail
}

// reservationWindow bounds a pilot's window on a node in full-scheduler
// mode: nodes claimed by the head reservation are free only until the
// shadow time; others are free through the backfill window.
func (e *Emulator) reservationWindow(node int, now des.Time) time.Duration {
	if e.headReservation.nodes[node] && e.headReservation.shadow > now {
		return e.headReservation.shadow - now
	}
	return backfillWindow
}

// onPrimeNodeFree schedules a prompt prime pass after a prime job frees
// nodes (debounced to one pending pass).
func (e *Emulator) onPrimeNodeFree() {
	if e.primePassPending || len(e.primeQueue) == 0 {
		return
	}
	e.primePassPending = true
	e.sim.After(time.Second, func() {
		e.primePassPending = false
		e.schedulePrime()
	})
}
