// Package lambda models a commercial FaaS baseline (AWS Lambda) for two
// roles in the reproduction: the performance comparison of Fig. 7
// (memory-scaled CPU share, §V-D) and the fallback backend of the Alg. 1
// client wrapper (§III-E).
package lambda

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/sebs"
	"repro/internal/whisk"
)

// FullCPUMemoryMB is the memory size at which AWS Lambda grants a full
// vCPU (documented by AWS as 1,769 MB).
const FullCPUMemoryMB = 1769

// CoreEfficiency is the speed of a Lambda vCPU relative to a Prometheus
// node core, calibrated so the 2048 MB configuration runs the SeBS
// compute functions ≈15% slower than the HPC node (Fig. 7).
const CoreEfficiency = 0.87

// SpeedFactor returns the compute speed (Prometheus core = 1.0) of a
// Lambda slot with the given memory size.
func SpeedFactor(memoryMB int) float64 {
	share := float64(memoryMB) / FullCPUMemoryMB
	if share > 1 {
		share = 1
	}
	return share * CoreEfficiency
}

// Platform returns the Fig. 7 comparison platform for a memory size.
func Platform(memoryMB int) sebs.Platform {
	return sebs.Platform{
		Name:        fmt.Sprintf("Lambda-%dMB", memoryMB),
		SpeedFactor: SpeedFactor(memoryMB),
	}
}

// ClientConfig models the invocation path of the commercial service.
type ClientConfig struct {
	WarmOverhead dist.Dist // request path overhead, seconds
	ColdProb     float64   // probability a call hits a cold slot
	FailureProb  float64
}

// DefaultClientConfig returns a Lambda-like client model: sub-100 ms
// warm overhead, occasional several-hundred-ms cold starts.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		WarmOverhead: dist.Uniform{Lo: 0.030, Hi: 0.120},
		ColdProb:     0.02,
		FailureProb:  0.001,
	}
}

// memoryMB is the function memory size of the modelled service.
const memoryMB = 2048

// defaultExecTime is the execution time of actions without a
// registered model.
const defaultExecTime = 10 * time.Millisecond

// coldStartSeconds is the extra latency of a call that hits a cold slot.
var coldStartSeconds dist.Dist = dist.Uniform{Lo: 0.250, Hi: 0.900}

// The resume path (InvokeResume): the checkpoint state of a stranded
// cluster execution is uploaded at resumeBandwidthMBps, then the
// process reconstructs in resumeOverheadSeconds before the remaining
// body runs. Only drawn when a resume is invoked, so deployments
// without checkpointing keep their draw sequence.
var (
	// Cross-site upload is slower than the cluster-internal restore
	// path: the calibrated restore bandwidth halved (lognormal median
	// 350→175 MB/s, same spread, clamps scaled to match).
	resumeBandwidthMBps   dist.Dist = dist.Clamped{D: dist.Lognormal{Mu: math.Log(175), Sigma: 0.4}, Min: 40, Max: 600}
	resumeOverheadSeconds           = dist.RestoreOverheadSeconds()
)

// Client is a core.Backend that always has capacity (the commercial
// cloud never runs out of idle HPC nodes). It executes registered
// actions under the memory-scaled speed factor.
type Client struct {
	sim    *des.Sim
	cfg    ClientConfig
	rng    *rand.Rand
	exec   map[string]whisk.ExecFunc
	nextID int64

	// Counters.
	Calls     int
	ColdCalls int
	Resumes   int // checkpointed executions continued here (InvokeResume)
}

// NewClient builds the commercial-cloud backend.
func NewClient(sim *des.Sim, cfg ClientConfig, seed int64) *Client {
	return &Client{sim: sim, cfg: cfg, rng: dist.NewRand(seed), exec: map[string]whisk.ExecFunc{}}
}

// RegisterAction attaches an execution-time model to an action name.
// Unregistered actions fall back to defaultExecTime.
func (c *Client) RegisterAction(name string, exec whisk.ExecFunc) { c.exec[name] = exec }

// Invoke implements core.Backend: the call always succeeds (modulo the
// small failure probability) after overhead plus the speed-scaled
// execution time.
func (c *Client) Invoke(action string, done func(*whisk.Invocation)) {
	c.Calls++
	inv := &whisk.Invocation{
		ID:        c.nextID,
		Submitted: c.sim.Now(),
		InvokerID: -1,
	}
	c.nextID++
	var execTime time.Duration
	if fn, ok := c.exec[action]; ok {
		execTime = fn(c.rng)
	} else {
		execTime = defaultExecTime
	}
	execTime = time.Duration(float64(execTime) / SpeedFactor(memoryMB))

	total := dist.Seconds(c.cfg.WarmOverhead, c.rng) + execTime
	if c.rng.Float64() < c.cfg.ColdProb {
		total += dist.Seconds(coldStartSeconds, c.rng)
		inv.ColdStart = true
		c.ColdCalls++
	}
	status := whisk.StatusSuccess
	if c.rng.Float64() < c.cfg.FailureProb {
		status = whisk.StatusFailed
	}
	c.sim.After(total, func() {
		inv.Completed = c.sim.Now()
		inv.Status = status
		if done != nil {
			done(inv)
		}
	})
}

// InvokeResume continues a checkpointed execution stranded on the
// cluster (core.ResumeBackend): the last checkpoint's stateMB uploads
// at the configured bandwidth, the process reconstructs, and only the
// remaining body runs — speed-scaled like every execution here. The
// resume slot is always cold (the cloud never saw this function's
// state before).
func (c *Client) InvokeResume(action string, remaining time.Duration, stateMB float64, done func(*whisk.Invocation)) {
	c.Calls++
	c.Resumes++
	inv := &whisk.Invocation{
		ID:        c.nextID,
		Submitted: c.sim.Now(),
		InvokerID: -1,
		ColdStart: true,
		StateMB:   stateMB,
		Resumes:   1,
	}
	c.nextID++
	exec := time.Duration(float64(remaining) / SpeedFactor(memoryMB))
	var transfer time.Duration
	if bw := resumeBandwidthMBps.Sample(c.rng); bw > 0 && stateMB > 0 {
		transfer = time.Duration(stateMB / bw * float64(time.Second))
	}
	total := dist.Seconds(c.cfg.WarmOverhead, c.rng) +
		dist.Seconds(coldStartSeconds, c.rng) +
		transfer + dist.Seconds(resumeOverheadSeconds, c.rng) + exec
	c.ColdCalls++
	status := whisk.StatusSuccess
	if c.rng.Float64() < c.cfg.FailureProb {
		status = whisk.StatusFailed
	}
	c.sim.After(total, func() {
		inv.Completed = c.sim.Now()
		inv.Status = status
		if done != nil {
			done(inv)
		}
	})
}
