// Package slurm emulates the Slurm Workload Manager semantics that
// HPC-Whisk depends on (§III-D of the paper): partitions with priority
// tiers, PreemptMode=CANCEL with a SIGTERM grace period, EASY backfill
// on 2-minute allocation slots within a 120-minute window, variable-
// length jobs (--time-min/--time), and periodic scheduling passes whose
// cost grows with the queue — the effect behind the var model's
// underperformance in §V-B2.
//
// The emulator runs on the discrete-event kernel of internal/des and
// supports two prime-workload modes: an exogenous per-node availability
// trace (internal/workload.Trace), standing in for the production
// cluster of the paper's experiments, and a full job-stream mode where
// prime jobs are scheduled by the emulator's own backfill.
package slurm

import (
	"fmt"
	"time"

	"repro/internal/des"
)

// JobState is the lifecycle state of a job.
type JobState uint8

// Job lifecycle: Pending in the queue, Running on nodes, Completing
// after SIGTERM (grace period), Done after the job ended or was removed
// from the queue.
const (
	Pending JobState = iota
	Running
	Completing
	Done
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completing:
		return "completing"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("jobstate(%d)", uint8(s))
	}
}

// EndReason explains why a job left the system.
type EndReason uint8

// End reasons: ReasonTimeout when the granted time elapsed,
// ReasonPreempted when a higher-tier job reclaimed the nodes,
// ReasonCancelled when the job was removed from the queue before start,
// ReasonCompleted when a prime job finished its actual runtime.
const (
	ReasonNone EndReason = iota
	ReasonTimeout
	ReasonPreempted
	ReasonCancelled
	ReasonCompleted
)

// String implements fmt.Stringer.
func (r EndReason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonTimeout:
		return "timeout"
	case ReasonPreempted:
		return "preempted"
	case ReasonCancelled:
		return "cancelled"
	case ReasonCompleted:
		return "completed"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// JobSpec describes a job at submission.
type JobSpec struct {
	Name      string
	Partition string // must name a configured partition

	Nodes int // requested node count (pilot jobs use 1)

	// TimeLimit is --time, the maximum walltime. For variable-length
	// jobs TimeMin is --time-min (> 0): Slurm grants a duration between
	// TimeMin and TimeLimit depending on the window it finds.
	TimeLimit time.Duration
	TimeMin   time.Duration

	// Runtime is the job's actual work duration; it applies to prime
	// jobs in full-scheduler mode (the job completes after Runtime even
	// if TimeLimit is larger). Zero means the job runs until its limit.
	Runtime time.Duration

	// Priority orders jobs within their partition's tier (higher first;
	// the fib manager sets Priority proportional to TimeLimit, §III-D).
	Priority int64

	// Lifecycle hooks, all optional, called on the simulation plane.
	OnStart   func(j *Job)              // job began running
	OnSigterm func(j *Job, at des.Time) // grace warning before kill
	OnEnd     func(j *Job, reason EndReason)
}

// Job is a submitted job tracked by the emulator.
type Job struct {
	ID   int
	Spec JobSpec

	State     JobState
	Reason    EndReason
	Submitted des.Time
	Started   des.Time
	Ended     des.Time

	// Granted is the walltime the scheduler allotted (equals
	// Spec.TimeLimit for fixed-length jobs; within [TimeMin, TimeLimit]
	// for variable-length ones).
	Granted time.Duration

	// NodeIDs are the allocated nodes while Running/Completing.
	NodeIDs []int

	// GracefulExit records that the job exited voluntarily after
	// SIGTERM rather than being SIGKILLed.
	GracefulExit bool

	emu      *Emulator
	endEvent des.Event // natural SIGTERM-at-limit or completion event
	killEv   des.Event // SIGKILL at the end of the grace period
}

// Variable reports whether the job has a flexible duration.
func (j *Job) Variable() bool { return j.Spec.TimeMin > 0 && j.Spec.TimeMin < j.Spec.TimeLimit }

// Exit ends a Running or Completing job voluntarily (the HPC-Whisk
// invoker calls this once its hand-off finished). It is a no-op in any
// other state.
func (j *Job) Exit() {
	if j.State != Running && j.State != Completing {
		return
	}
	if j.State == Completing {
		j.GracefulExit = true
	}
	reason := j.Reason
	if reason == ReasonNone {
		reason = ReasonCompleted
	}
	j.emu.finish(j, reason)
}

// Partition configures one Slurm partition.
type Partition struct {
	Name string
	// PriorityTier orders partitions: the scheduler never starts a job
	// from a lower tier if it would delay a higher tier, and higher
	// tiers preempt lower ones (PreemptMode=CANCEL). HPC-Whisk pilots
	// live in a tier-0 partition (§III-D).
	PriorityTier int
}
