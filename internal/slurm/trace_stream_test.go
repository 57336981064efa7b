package slurm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/workload"
)

// driveUpFront is the reference for DriveTrace: it queues both boundaries
// of every period at set-up, in start order (ties by index), each with a
// sequence number of its own.
func driveUpFront(e *Emulator, tr *workload.Trace) {
	e.inTraceMode = true
	for i := 0; i < e.cl.Len(); i++ {
		e.cl.Set(i, cluster.Busy, e.sim.Now())
	}
	periods := slices.Clone(tr.Periods)
	slices.SortStableFunc(periods, func(a, b workload.IdlePeriod) int {
		return cmp.Compare(a.Start, b.Start)
	})
	for i := range periods {
		p := &periods[i]
		e.sim.Schedule(p.Start, func() { e.traceIdleStart(p) })
		e.sim.Schedule(p.End, func() { e.traceIdleEnd(p) })
	}
}

// fireLog drives tr through an emulator, streamed or up front, to the end
// of its horizon beside one ticker of the given interval, and returns the
// log of every node transition as "instant state node" and every tick
// that finds the idle count changed since the last one as "instant tick
// count". No pilots run, so a boundary that finds its node in another
// state is a transition. For the streamed driver it also requires, once
// every event at an instant has fired, at most one start, the end of
// every period open then and the tick pending, and it returns the largest
// number pending after any event.
func fireLog(t *testing.T, tr *workload.Trace, tick time.Duration, upFront bool) (string, int) {
	t.Helper()
	sim := des.New()
	e := New(sim, tr.Nodes, DefaultConfig())
	if upFront {
		driveUpFront(e, tr)
	} else {
		e.DriveTrace(tr)
	}
	var log strings.Builder
	e.cl.OnChange(func(node int, _, to cluster.State, at time.Duration) {
		fmt.Fprintf(&log, "%d %v %d\n", at, to, node)
	})
	last := 0
	sim.Every(tick, func() {
		if n := e.cl.Count(cluster.Idle); n != last {
			fmt.Fprintf(&log, "%d tick %d\n", sim.Now(), n)
			last = n
		}
	})
	var starts, ends []time.Duration
	for _, p := range tr.Periods {
		starts, ends = append(starts, p.Start), append(ends, p.End)
	}
	slices.Sort(starts)
	slices.Sort(ends)
	most, started, ended := 0, 0, 0
	for {
		if at, ok := sim.NextAt(); !ok || at > tr.Horizon {
			break
		}
		sim.Step()
		most = max(most, sim.Pending())
		if at, ok := sim.NextAt(); upFront || ok && at == sim.Now() {
			continue
		}
		for started < len(starts) && starts[started] <= sim.Now() {
			started++
		}
		for ended < len(ends) && ends[ended] <= sim.Now() {
			ended++
		}
		if open := started - ended; sim.Pending() > 1+open+1 {
			t.Fatalf("at %v: %d events pending with %d periods open", sim.Now(), sim.Pending(), open)
		}
	}
	return log.String(), most
}

// edgeTrace is hand-built around the ties streaming could reorder: four
// periods end at the horizon and start in its last 10 s (one on the
// 100 ms grid), so their ends tie with the ticks at the horizon; three
// periods cut at one instant on both tick grids, as a saturation cuts
// them, and one of their nodes opens again at that instant; and two
// periods start at one instant on both grids.
func edgeTrace() *workload.Trace {
	const h = 10 * time.Minute
	ms := time.Millisecond
	p := func(node int, start, end time.Duration) workload.IdlePeriod {
		return workload.IdlePeriod{Node: node, Start: start, End: end, DeclaredEnd: end}
	}
	tr := &workload.Trace{Nodes: 8, Horizon: h, Periods: []workload.IdlePeriod{
		p(0, h-5*time.Second, h),
		p(1, h-9900*ms, h),
		p(2, h-100*ms, h),
		p(3, h-7350*ms, h),
		p(4, time.Minute, 5*time.Minute),
		p(5, 2*time.Minute+30*time.Second, 5*time.Minute),
		p(6, 5*time.Minute-100*ms, 5*time.Minute),
		p(4, 5*time.Minute, 8*time.Minute),
		p(0, 3*time.Minute, 4*time.Minute),
		p(7, 3*time.Minute, 6*time.Minute+1234*ms),
	}}
	tr.Sort()
	return tr
}

// shuffled returns a copy of tr with its periods in a random order.
func shuffled(tr *workload.Trace, seed int64) *workload.Trace {
	cp := *tr
	cp.Periods = slices.Clone(tr.Periods)
	rand.New(rand.NewSource(seed)).Shuffle(len(cp.Periods), func(i, j int) {
		cp.Periods[i], cp.Periods[j] = cp.Periods[j], cp.Periods[i]
	})
	return &cp
}

// nodeLog returns node's transitions in a fireLog log, in firing order,
// as "instant state".
func nodeLog(t *testing.T, log string, node int) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var at time.Duration
		var state string
		var n int
		if _, err := fmt.Sscanf(line, "%d %s %d", &at, &state, &n); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if state != "tick" && n == node {
			out = append(out, fmt.Sprintf("%v %s", at, state))
		}
	}
	return out
}

// TestDriveTraceStreamsInReservedPlaces requires the streamed DriveTrace
// to fire every boundary where queuing them all up front, in start
// order, fires it: the same node transitions, in the same order, around
// the same ticks, on a generated day, on the hand-built edge trace and
// on shuffled copies of both, beside a 10 s and a 100 ms ticker.
// Streaming must keep the queue at one start, the open periods' ends
// and the ticker. On both edge traces node 4's first period ends at
// 5 min, where its second starts: the end must fire first, so the node
// is idle again from 5 to 8 min however the periods are listed.
func TestDriveTraceStreamsInReservedPlaces(t *testing.T) {
	day := workload.DefaultIdleProcess(2239, 24*time.Hour, 7).Generate()
	traces := []struct {
		name string
		tr   *workload.Trace
	}{
		{"generated day", day},
		{"edge", edgeTrace()},
		{"shuffled day", shuffled(day, 1)},
		{"shuffled edge", shuffled(edgeTrace(), 2)},
	}
	node4 := []string{"1m0s idle", "5m0s busy", "5m0s idle", "8m0s busy"}
	for _, c := range traces {
		for _, tick := range []time.Duration{10 * time.Second, 100 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s, %v ticker", c.name, tick), func(t *testing.T) {
				got, most := fireLog(t, c.tr, tick, false)
				want, _ := fireLog(t, c.tr, tick, true)
				if got != want {
					gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
					i := 0
					for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
						i++
					}
					t.Fatalf("logs diverge at line %d: streamed %q, up front %q",
						i, gl[min(i, len(gl)-1)], wl[min(i, len(wl)-1)])
				}
				if lines := strings.Count(got, "\n"); lines < 2*len(c.tr.Periods) {
					t.Errorf("%d log lines for %d periods", lines, len(c.tr.Periods))
				}
				if n := len(c.tr.Periods); n > 100 && most >= n/10 {
					t.Errorf("%d events pending at most, for %d periods", most, n)
				}
				if strings.HasSuffix(c.name, "edge") {
					if got := nodeLog(t, got, 4); !slices.Equal(got, node4) {
						t.Errorf("node 4 transitions %q, want %q", got, node4)
					}
				}
			})
		}
	}
}

// TestDriveTraceRejectsReversedPeriod: a period that ends before it
// starts, which Validate rejects, panics at DriveTrace, naming it.
func TestDriveTraceRejectsReversedPeriod(t *testing.T) {
	_, e := newEmu(t, 2)
	tr := &workload.Trace{Nodes: 2, Horizon: time.Hour, Periods: []workload.IdlePeriod{
		{Node: 0, Start: time.Minute, End: 2 * time.Minute},
		{Node: 1, Start: 5 * time.Minute, End: 4 * time.Minute},
	}}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "period 1 ") {
			t.Errorf("recovered %v, want a panic naming period 1", r)
		}
	}()
	e.DriveTrace(tr)
}
