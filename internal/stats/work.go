package stats

import "time"

// WorkCounters is the compute-accounting ledger of the checkpoint
// subsystem: where execution time actually went once pilots can be
// reclaimed mid-execution. All fields are plain counters — O(1)
// memory, exact under both buffered and streaming collection, and
// mergeable across sites/replicas — so the type is safe for
// week-scale streaming runs and for sweep aggregation.
//
// The invariant the experiments assert: total busy container time
// = Goodput + Wasted + Lost + CheckpointTime + RestoreTime (start-up
// latencies excluded; they are accounted by the cold/warm-start
// model).
type WorkCounters struct {
	// Checkpoints counts completed checkpoint dumps.
	Checkpoints int

	// Resumed counts executions that restarted from a checkpoint
	// (each restore increments it once).
	Resumed int

	// CloudResumes counts resumes served by the Alg. 1 commercial
	// fallback rather than another pilot.
	CloudResumes int

	// Goodput is execution-body time that contributed to a completed
	// invocation, including checkpointed progress reused by a resume.
	Goodput time.Duration

	// Wasted is execution-body time lost to an interrupt but bounded
	// by the checkpoint interval: work since the last checkpoint when
	// the execution was interrupted and later resumed (or requeued).
	Wasted time.Duration

	// Lost is execution-body time destroyed outright: progress of
	// executions killed without hand-off, or interrupted with no
	// checkpoint to resume from.
	Lost time.Duration

	// CheckpointTime is the cumulative stop-the-world dump pause.
	CheckpointTime time.Duration

	// RestoreTime is the cumulative state-transfer + restore cost paid
	// by resumes.
	RestoreTime time.Duration
}

// GoodputShare returns Goodput over all accounted execution-body time
// (goodput + wasted + lost), in [0, 1]; 0 when nothing is accounted.
// Checkpoint and restore overheads are excluded from the denominator:
// the share answers "of the work bodies ran, how much counted?".
func (w WorkCounters) GoodputShare() float64 {
	total := w.Goodput + w.Wasted + w.Lost
	if total <= 0 {
		return 0
	}
	return float64(w.Goodput) / float64(total)
}
