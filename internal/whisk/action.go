// Package whisk emulates the OpenWhisk FaaS middleware with the
// HPC-Whisk modifications of §III: a controller that routes invocations
// to invokers by action-name hash, per-invoker Kafka topics, a container
// pool with cold/warm starts on each invoker — plus the paper's
// extensions: dynamic invoker (de)registration, continuous worker status
// reporting, and the global fast-lane topic used to hand off the queue
// of a terminating invoker.
package whisk

import (
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/bus"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/dist"
)

// ExecFunc models the in-container execution time of one invocation.
type ExecFunc func(r *rand.Rand) time.Duration

// FixedExec returns an ExecFunc with a constant duration.
func FixedExec(d time.Duration) ExecFunc {
	return func(*rand.Rand) time.Duration { return d }
}

// DistExec returns an ExecFunc drawing seconds from a distribution.
func DistExec(d dist.Dist) ExecFunc {
	return func(r *rand.Rand) time.Duration { return dist.Seconds(d, r) }
}

// Action is a deployed function.
type Action struct {
	Name     string
	MemoryMB int
	Exec     ExecFunc

	// Interruptible marks the function safe to interrupt mid-execution
	// and re-queue through the fast lane during an invoker hand-off
	// (§III-C lets clients opt out for functions with non-atomic
	// external side effects).
	Interruptible bool

	// Checkpoint attaches a checkpoint/restore model: executions of an
	// interruptible action periodically dump their state, and an
	// interrupted execution re-queues as a resume token that continues
	// from the last checkpoint on another invoker (or the cloud
	// fallback) instead of restarting. nil — or a model whose Enabled
	// is false — leaves the execution path exactly as it was.
	Checkpoint *checkpoint.Model

	// nameHash memoizes hash() at RegisterAction time: the home-invoker
	// derivation reads it on every route, and the value never changes
	// for a deployed action (Name is fixed at registration).
	nameHash uint32
}

func (a *Action) hash() uint32 {
	h := fnv.New32a()
	h.Write([]byte(a.Name))
	return h.Sum32()
}

// Status classifies the outcome of an invocation.
type Status uint8

// Invocation outcomes. StatusPending is in flight; Status503 means the
// controller had no healthy invoker (§III-E); StatusSuccess completed;
// StatusFailed errored during execution (e.g. container-limit pressure);
// StatusTimeout never returned within the action timeout (lost requests
// surface here, as in the paper's "not finished" class).
const (
	StatusPending Status = iota
	StatusSuccess
	StatusFailed
	StatusTimeout
	Status503
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusSuccess:
		return "success"
	case StatusFailed:
		return "failed"
	case StatusTimeout:
		return "timeout"
	case Status503:
		return "503"
	default:
		return "unknown"
	}
}

// Invocation is one function call from submission to completion.
//
// Invocations may be pooled by their controller (see
// ControllerConfig.PoolInvocations): lifetime is tracked by a reference
// count covering pending request-path hops, a place queued on a topic
// or in a buffer, and the executing invoker, and the last release
// recycles the object for a later request. With pooling enabled, a
// pointer retained past the done callback goes stale once traffic
// continues; Generation detects such reuse.
type Invocation struct {
	ID     int64
	Action *Action

	Submitted des.Time // client sent the request
	Routed    des.Time // controller picked an invoker (or 503'd)
	Executed  des.Time // execution started on a node
	Completed des.Time // client received the outcome

	Status    Status
	ColdStart bool
	Requeues  int // fast-lane hops before execution
	InvokerID int // slot of the executing invoker, -1 if none

	// Resume-token state of the checkpoint subsystem. Progress is the
	// execution-body time durably checkpointed so far; StateMB is the
	// serialized size of the last checkpoint (what a resume transfers);
	// Resumes counts restore-and-continue attempts. All three stay zero
	// on actions without an enabled checkpoint model.
	Progress time.Duration
	StateMB  float64
	Resumes  int

	done      func(*Invocation)
	timeoutEv des.Event
	execEv    des.Event // completion event while executing (for interrupts)

	// Allocation-free request-path state. routeTopic carries the routing
	// decision, the routed invoker's topic, to the publish hop; execOK
	// carries the execution outcome through the result hop; execStartAt
	// is stamped into Executed when (and only when) the execution
	// completes, matching the pre-pooling semantics where an interrupted
	// attempt left no trace.
	routeTopic  *bus.Topic[*Invocation]
	execOK      bool
	execStartAt des.Time

	// action is Action's index in its controller (see
	// Controller.actions): the key of the executing invoker's container
	// pool.
	action int

	// Checkpointed-execution state. bodyTotal is the execution-body
	// duration drawn once on the first attempt (a resume continues the
	// same body instead of redrawing); segWork is the work scheduled in
	// the in-flight segment; segStartAt is when that segment's body
	// work began (after start-up, restore, or dump pause).
	bodyTotal  time.Duration
	segWork    time.Duration
	segStartAt des.Time

	refs   int32  // live references; 0 = recyclable
	gen    uint32 // increments on every recycle
	pooled bool   // sitting in the controller free list
}

// Generation reports how many times the invocation's slot has been
// recycled, letting holders of a retained pointer detect reuse under
// pooling.
func (inv *Invocation) Generation() uint32 { return inv.gen }

// Remaining returns the execution-body time still owed beyond the last
// checkpoint, or 0 when no checkpointed attempt has started. The
// Alg. 1 wrapper uses it to resume a stranded execution on the cloud
// fallback.
func (inv *Invocation) Remaining() time.Duration {
	if inv.bodyTotal <= inv.Progress {
		return 0
	}
	return inv.bodyTotal - inv.Progress
}

// Latency returns the client-observed response time.
func (inv *Invocation) Latency() time.Duration { return inv.Completed - inv.Submitted }
