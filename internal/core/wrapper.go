package core

import (
	"time"

	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/whisk"
)

// Backend issues function invocations; whisk.Controller, the
// federation's front door and the commercial-cloud model of
// internal/lambda all implement it.
type Backend interface {
	Invoke(action string, done func(*whisk.Invocation))
}

// ResumeBackend is a Backend that can continue a checkpointed
// execution from its last durable checkpoint instead of restarting it;
// the commercial-cloud model implements it by uploading the state and
// running only the remaining body.
type ResumeBackend interface {
	Backend
	InvokeResume(action string, remaining time.Duration, stateMB float64, done func(*whisk.Invocation))
}

// Wrapper is the client-side fallback of Alg. 1 (§III-E): calls go to
// the HPC-Whisk deployment unless it returned 503 within the cooldown
// window, in which case they go to a commercial FaaS service. A 503
// from the primary marks the window and retries through the wrapper
// (landing on the fallback), so callers never see the 503.
type Wrapper struct {
	sim      *des.Sim
	primary  Backend
	fallback Backend

	// Cooldown is how long after a 503 calls keep off-loading (60 s in
	// Alg. 1).
	Cooldown time.Duration

	// ResumeTimeouts extends Alg. 1 to the checkpoint subsystem: a
	// primary invocation that timed out with checkpointed progress
	// re-invokes on the fallback from its last checkpoint (paying
	// upload + restore, running only the remaining body) instead of
	// surfacing the timeout. Requires a fallback implementing
	// ResumeBackend; off by default so the plain Alg. 1 semantics — and
	// every golden-pinned run — are untouched.
	ResumeTimeouts bool

	has503  bool
	last503 des.Time

	// work, when the primary is a whisk.Controller, mirrors cloud
	// resumes into the site's compute ledger.
	work *stats.WorkCounters

	// callPool recycles the per-call retry context (action + done +
	// cached completion callback), so a primary invocation costs no
	// closure allocation in steady state.
	callPool []*wrapCall

	// Counters.
	PrimaryCalls  int
	FallbackCalls int
	Retries       int
	CloudResumes  int
}

// wrapCall is one in-flight primary invocation's retry context. fn is
// the method value handed to the backend, created once per pooled
// object rather than once per call.
type wrapCall struct {
	w      *Wrapper
	action string
	done   func(*whisk.Invocation)
	fn     func(*whisk.Invocation)
}

// onDone implements the 503-retry branch of Alg. 1 for one call. The
// call object returns to the pool before any retry re-enters Invoke,
// so the recursion can reuse it.
func (c *wrapCall) onDone(inv *whisk.Invocation) {
	w := c.w
	action, done := c.action, c.done
	c.action, c.done = "", nil
	w.callPool = append(w.callPool, c)
	if w.ResumeTimeouts && inv.Status == whisk.StatusTimeout && inv.Progress > 0 && inv.Remaining() > 0 {
		if rb, ok := w.fallback.(ResumeBackend); ok {
			// The cluster lost the pilot mid-execution and the client
			// timed out waiting: continue from the last checkpoint on
			// the commercial cloud. Copy the resume token's fields
			// before re-entering any backend — under pooling the object
			// may recycle once this callback returns. Latency back-dates
			// to the original submission, like the 503 retry.
			w.CloudResumes++
			if w.work != nil {
				w.work.CloudResumes++
			}
			sub := inv.Submitted
			remaining, state := inv.Remaining(), inv.StateMB
			rb.InvokeResume(action, remaining, state, func(retry *whisk.Invocation) {
				if retry.Submitted > sub {
					retry.Submitted = sub
				}
				if done != nil {
					done(retry)
				}
			})
			return
		}
	}
	if inv.Status == whisk.Status503 && w.fallback != nil {
		w.has503 = true
		w.last503 = w.sim.Now()
		w.Retries++
		// Back-date the retried invocation to the original submission:
		// clients measure latency as Completed−Submitted, and the
		// client-observed span of a retried call includes the primary's
		// 503 round trip (the retry is invisible per Alg. 1). The
		// closure is fine here — retries are the rare 503 window, never
		// the steady-state request path.
		sub := inv.Submitted
		w.Invoke(action, func(retry *whisk.Invocation) {
			if retry.Submitted > sub {
				retry.Submitted = sub
			}
			if done != nil {
				done(retry)
			}
		})
		return
	}
	if done != nil {
		done(inv)
	}
}

// getCall pops the pool or builds a new call context.
func (w *Wrapper) getCall() *wrapCall {
	if k := len(w.callPool); k > 0 {
		c := w.callPool[k-1]
		w.callPool[k-1] = nil
		w.callPool = w.callPool[:k-1]
		return c
	}
	c := &wrapCall{w: w}
	c.fn = c.onDone
	return c
}

// NewWrapper builds the Alg. 1 wrapper. fallback may be nil, in which
// case 503s surface to the caller unchanged (retries disabled).
func NewWrapper(sim *des.Sim, primary, fallback Backend) *Wrapper {
	w := &Wrapper{sim: sim, primary: primary, fallback: fallback, Cooldown: time.Minute}
	if ctrl, ok := primary.(*whisk.Controller); ok {
		w.work = &ctrl.Work
	}
	return w
}

// Invoke implements Alg. 1.
func (w *Wrapper) Invoke(action string, done func(*whisk.Invocation)) {
	now := w.sim.Now()
	if w.fallback != nil && w.has503 && now-w.last503 <= w.Cooldown {
		w.FallbackCalls++
		w.fallback.Invoke(action, done)
		return
	}
	w.PrimaryCalls++
	c := w.getCall()
	c.action, c.done = action, done
	w.primary.Invoke(action, c.fn)
}
