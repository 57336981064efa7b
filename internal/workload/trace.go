// Package workload generates and analyzes the workloads of the HPC-Whisk
// reproduction: the per-node idle-availability trace standing in for the
// Prometheus production logs of §I (Fig. 1), and the HPC job stream of
// Fig. 2. Both are calibrated against the statistics published in the
// paper and verified by tests.
package workload

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// IdlePeriod is one contiguous idle interval of one node. Start and End
// delimit the actual idleness; DeclaredEnd is the end the cluster
// scheduler believes in at Start (its view of when the next prime job
// will claim the node). DeclaredEnd < End models surprise extensions
// (a prime job finished early elsewhere, the planned start slipped);
// DeclaredEnd > End models surprise reclaims that preempt pilot jobs.
type IdlePeriod struct {
	Node        int
	Start       time.Duration
	End         time.Duration
	DeclaredEnd time.Duration
}

// Len returns the actual length of the period.
func (p IdlePeriod) Len() time.Duration { return p.End - p.Start }

// Trace is a whole-cluster idle-availability trace over a horizon.
type Trace struct {
	Nodes   int
	Horizon time.Duration
	Periods []IdlePeriod // sorted by Start
}

// Sort orders the periods by start time (ties by node id).
func (t *Trace) Sort() {
	slices.SortFunc(t.Periods, func(a, b IdlePeriod) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// Validate checks internal consistency: periods within the horizon, nodes
// in range, per-node periods non-overlapping.
func (t *Trace) Validate() error {
	lastEnd := make([]time.Duration, t.Nodes)
	byNode := t.PerNode()
	for node, idxs := range byNode {
		for _, i := range idxs {
			p := t.Periods[i]
			if p.Node != node {
				return fmt.Errorf("workload: period %d filed under node %d but belongs to %d", i, node, p.Node)
			}
			if p.Start < 0 || p.End > t.Horizon || p.End <= p.Start {
				return fmt.Errorf("workload: period %d has bad bounds [%v,%v)", i, p.Start, p.End)
			}
			// The generator clamps DeclaredEnd to at least Start (a
			// declared end may exceed End — a surprise reclaim — or
			// even the horizon, but never precede the period).
			if p.DeclaredEnd < p.Start {
				return fmt.Errorf("workload: period %d declares end %v before start %v", i, p.DeclaredEnd, p.Start)
			}
			if p.Start < lastEnd[node] {
				return fmt.Errorf("workload: node %d periods overlap at %v", node, p.Start)
			}
			lastEnd[node] = p.End
		}
	}
	return nil
}

// PerNode returns, for each node, the indices of its periods in start
// order.
func (t *Trace) PerNode() [][]int {
	out := make([][]int, t.Nodes)
	for i, p := range t.Periods {
		out[p.Node] = append(out[p.Node], i)
	}
	for _, idxs := range out {
		sort.Slice(idxs, func(a, b int) bool { return t.Periods[idxs[a]].Start < t.Periods[idxs[b]].Start })
	}
	return out
}

// IdleCount returns the piecewise-constant number of simultaneously idle
// nodes over the horizon, built by an event sweep. This regenerates
// Fig. 1a (its time-weighted distribution) and Fig. 1c (the series).
func (t *Trace) IdleCount() *stats.TimeWeighted {
	type ev struct {
		at    time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(t.Periods))
	for _, p := range t.Periods {
		evs = append(evs, ev{p.Start, +1}, ev{p.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta // ends before starts at the same instant
	})
	var tw stats.TimeWeighted
	tw.Observe(0, 0)
	n := 0
	for _, e := range evs {
		n += e.delta
		tw.Observe(e.at, float64(n))
	}
	tw.Finish(t.Horizon)
	return &tw
}

// PeriodLengths returns the sample of idle-period lengths in seconds
// (Fig. 1b).
func (t *Trace) PeriodLengths() *stats.Sample {
	var s stats.Sample
	for _, p := range t.Periods {
		s.AddDuration(p.Len())
	}
	return &s
}

// TotalIdle returns the summed idle node-time of the trace (the paper's
// "idle surface"; §I reports 37,000 core-hours ≈ 1,541 node-hours/day on
// 24-core nodes over a week).
func (t *Trace) TotalIdle() time.Duration {
	var total time.Duration
	for _, p := range t.Periods {
		total += p.Len()
	}
	return total
}

// SaturationShare returns the fraction of the horizon with zero idle
// nodes and the longest such stretch (§I: 10.11% and 1.55 h).
func (t *Trace) SaturationShare() (share float64, longest time.Duration) {
	tw := t.IdleCount()
	zero := func(v float64) bool { return v == 0 }
	return tw.FractionEqual(0), tw.LongestRunWhere(zero)
}

// WriteCSV serializes the trace as "node,start_s,end_s,declared_end_s"
// rows preceded by a "#nodes,horizon_s" header comment.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#%d,%.3f\n", t.Nodes, t.Horizon.Seconds()); err != nil {
		return err
	}
	for _, p := range t.Periods {
		if _, err := fmt.Fprintf(bw, "%d,%.3f,%.3f,%.3f\n",
			p.Node, p.Start.Seconds(), p.End.Seconds(), p.DeclaredEnd.Seconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxNodes bounds the cluster size a trace may have: Validate, the
// idle-process generator and the packing simulators allocate per node,
// so a header or a flag naming billions of nodes would exhaust memory
// before anything ran. ReadCSV enforces it on trace headers; the
// scenario registry and the CLIs on every cluster-size input.
const MaxNodes = 1 << 20

// rowFields names the time fields of a trace row, in order.
var rowFields = [3]string{"start_s", "end_s", "declared_end_s"}

// ReadCSV parses a trace written by WriteCSV. Parsing is strict —
// wrong field counts, non-numeric fields, trailing garbage, times that
// are not finite or overflow a time.Duration, a header naming no nodes
// or more than MaxNodes, rows naming nodes outside the header's
// cluster size, and semantically invalid traces (empty or reversed
// periods, periods past the horizon, per-node overlaps — the Validate
// invariants) are all rejected — because joblen-opt feeds
// user-supplied files through here and the packing simulators assume a
// well-formed trace. Times are read to the millisecond, the resolution
// WriteCSV writes, so every trace ReadCSV returns writes and reads back
// unchanged.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	t := &Trace{}
	first := true
	lineNo := 0
	for sc.Scan() {
		line := sc.Text()
		lineNo++
		if line == "" {
			continue
		}
		if first {
			first = false
			rest, ok := strings.CutPrefix(line, "#")
			if !ok {
				return nil, fmt.Errorf("workload: bad trace header %q: want #nodes,horizon_s", line)
			}
			fields := strings.Split(rest, ",")
			if len(fields) != 2 {
				return nil, fmt.Errorf("workload: bad trace header %q: want 2 fields, got %d", line, len(fields))
			}
			nodes, err := strconv.Atoi(fields[0])
			if err != nil || nodes <= 0 || nodes > MaxNodes {
				return nil, fmt.Errorf("workload: bad trace header %q: node count %q (want 1 to %d)", line, fields[0], MaxNodes)
			}
			horizon, err := parseSeconds(fields[1])
			if err == nil && horizon <= 0 {
				err = errors.New("not positive")
			}
			if err != nil {
				return nil, fmt.Errorf("workload: bad trace header %q: horizon %q: %v", line, fields[1], err)
			}
			t.Nodes = nodes
			t.Horizon = horizon
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("workload: bad trace row %d %q: want node,start_s,end_s,declared_end_s", lineNo, line)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("workload: bad trace row %d %q: node %q: %v", lineNo, line, fields[0], err)
		}
		if node < 0 || node >= t.Nodes {
			return nil, fmt.Errorf("workload: bad trace row %d %q: node %d outside cluster of %d", lineNo, line, node, t.Nodes)
		}
		var at [3]time.Duration
		for i, f := range fields[1:] {
			if at[i], err = parseSeconds(f); err != nil {
				return nil, fmt.Errorf("workload: bad trace row %d %q: %s field %q: %v", lineNo, line, rowFields[i], f, err)
			}
		}
		t.Periods = append(t.Periods, IdlePeriod{Node: node, Start: at[0], End: at[1], DeclaredEnd: at[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("workload: empty trace stream")
	}
	t.Sort()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseSeconds parses a trace time in seconds, rounded to the
// millisecond. It rejects NaN and infinities, which ParseFloat accepts,
// and times whose nanoseconds overflow a time.Duration (about 292
// years).
func parseSeconds(f string) (time.Duration, error) {
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errors.New("not a finite number")
	}
	ms := math.Round(v * 1e3)
	if math.Abs(ms) > math.MaxInt64/1e6 {
		return 0, errors.New("beyond a duration's range of ±292 years")
	}
	return time.Duration(ms) * time.Millisecond, nil
}
