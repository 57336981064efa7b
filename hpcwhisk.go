// Package hpcwhisk is the public facade of the HPC-Whisk reproduction:
// a FaaS layer harvesting the transient idle nodes of an HPC cluster by
// submitting low-priority, preemptible pilot jobs to Slurm, each hosting
// a dynamically (de)registering OpenWhisk invoker (Przybylski et al.,
// "Using Unused: Non-Invasive Dynamic FaaS Infrastructure with
// HPC-Whisk", SC22).
//
// The facade exposes three layers:
//
//   - Deployment: New wires one complete simulated site (Slurm
//     emulator + OpenWhisk controller + pilot-job manager) on a fresh
//     virtual clock, driven by a generated availability trace;
//     NewFederation hosts several sites behind a routing front door.
//   - Workloads: GenerateTrace builds the calibrated idle-availability
//     trace standing in for the paper's production logs.
//   - Experiments: every table and figure of the paper's evaluation is
//     a named scenario in a registry — enumerable via Scenarios, run via
//     RunScenario with functional options, cancellable through a
//     context, and sweepable by name with SweepScenarios. Typed results
//     come back through ScenarioResult.Unwrap (e.g. DayResult).
//
// Everything runs on a deterministic virtual clock: a seeded run is
// reproducible bit-for-bit, and 24-hour experiments complete in seconds.
package hpcwhisk

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/lambda"
	"repro/internal/policy"
	"repro/internal/router"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// Supply-policy layer: the pilot-supply decision of §III-D is a
// swappable policy behind the policy.SupplyPolicy interface. Policies
// are stateful; the registry builds a fresh value per deployment.

// SupplyPolicy decides what pilot jobs the manager keeps queued.
type SupplyPolicy = policy.SupplyPolicy

// PolicyEnv is the deployment view a policy observes and acts through.
type PolicyEnv = policy.Env

// PilotEnd describes one ended pilot to a policy.
type PilotEnd = policy.PilotEnd

// PolicyNames lists the registered supply policies ("adaptive", "fib",
// "hybrid", "lease", "var", plus anything the embedding program
// registered).
func PolicyNames() []string { return policy.Names() }

// RegisterPolicy adds a custom policy factory to the registry, making
// it available to DefaultConfig, the scenarios' policy axis, and
// PolicyNames. See examples/policy for a worked custom policy.
func RegisterPolicy(name string, factory func() SupplyPolicy) {
	policy.Register(name, factory)
}

// Site is one fully wired HPC-Whisk deployment: Slurm emulator,
// OpenWhisk controller and bus, pilot manager, and Slurm-level logger,
// all sharing one virtual clock.
type Site = core.Site

// SiteConfig configures one deployment.
type SiteConfig = core.SiteConfig

// DefaultConfig returns the paper's deployment configuration for a
// cluster size and supply policy (a policy-registry name, e.g. "fib"
// or "var"; unknown names panic — check PolicyNames first when the
// name comes from user input).
func DefaultConfig(nodes int, policyName string) SiteConfig {
	return core.DefaultSystemConfig(nodes, policyName)
}

// New builds a single-cluster deployment on a fresh virtual clock.
func New(cfg SiteConfig) *Site { return core.NewSite(des.New(), cfg) }

// Federation layer: N independent Slurm+whisk sites advance on one
// synchronized virtual timeline behind a routing front door, so a
// single simulation models a cluster-of-clusters. With
// FederationConfig.Shards > 1 the sites run on their own event planes
// across CPU cores under the internal/pdes lookahead coordinator,
// byte-identically to the sequential run. Routing policies live in
// their own registry, mirroring the supply-policy one.

// Federation hosts N sites behind the routing front door.
type Federation = core.Federation

// FederationConfig wires the sites and names the routing policy.
type FederationConfig = core.FederationConfig

// NewFederation builds a federation on a fresh virtual clock.
func NewFederation(cfg FederationConfig) *Federation { return core.NewFederation(cfg) }

// UniformFederationConfig derives an n-site federation of identical
// deployments from one base config, with per-site seeds decorrelated
// so growing the federation never perturbs existing sites.
func UniformFederationConfig(n int, base SiteConfig) FederationConfig {
	return core.UniformFederationConfig(n, base)
}

// RoutingPolicy picks a target site per request from the health view.
type RoutingPolicy = router.RoutingPolicy

// RouterView is the per-site health view a routing policy observes.
type RouterView = router.View

// NoSite is the sentinel a routing policy returns when no site can
// take the request (the front door then surfaces a real 503, which
// the Alg. 1 wrapper can off-load).
const NoSite = router.NoSite

// RoutingPolicyNames lists the registered routing policies
// ("capacity-weighted", "fast-lane-aware", "latency-weighted",
// "spill-over", plus anything the embedding program registered).
func RoutingPolicyNames() []string { return router.Names() }

// RegisterRoutingPolicy adds a custom routing policy to the registry,
// making it available to FederationConfig.Routing and the
// federated-day scenario's routing option. See examples/federation for
// a worked custom policy.
func RegisterRoutingPolicy(name string, factory func() RoutingPolicy) {
	router.Register(name, factory)
}

// Trace is a whole-cluster idle-availability trace.
type Trace = workload.Trace

// TraceConfig parameterizes the calibrated idle-period process.
type TraceConfig = workload.IdleProcessConfig

// DefaultTraceConfig returns the §I calibration (9.23 mean idle nodes,
// 2-minute median periods, 10.11% saturation) for a cluster and span.
func DefaultTraceConfig(nodes int, horizon time.Duration, seed int64) TraceConfig {
	return workload.DefaultIdleProcess(nodes, horizon, seed)
}

// GenerateTrace builds a calibrated availability trace.
func GenerateTrace(nodes int, horizon time.Duration, seed int64) *Trace {
	return DefaultTraceConfig(nodes, horizon, seed).Generate()
}

// Action is a deployed FaaS function.
type Action = whisk.Action

// Invocation is one function call from submission to completion.
type Invocation = whisk.Invocation

// Invocation outcome statuses.
const (
	StatusSuccess = whisk.StatusSuccess
	StatusFailed  = whisk.StatusFailed
	StatusTimeout = whisk.StatusTimeout
	Status503     = whisk.Status503
)

// FixedExec models a constant in-container execution time.
func FixedExec(d time.Duration) whisk.ExecFunc { return whisk.FixedExec(d) }

// Wrapper is the Alg. 1 client-side fallback (§III-E).
type Wrapper = core.Wrapper

// NewWrapper builds the Alg. 1 wrapper over a deployment and an
// optional commercial-cloud fallback.
func NewWrapper(site *Site, fallback core.Backend) *Wrapper {
	return core.NewWrapper(site.Sim, site.Ctrl, fallback)
}

// LambdaClient is the commercial-FaaS fallback/baseline model.
type LambdaClient = lambda.Client

// NewLambdaClient builds the AWS-Lambda-like backend on a deployment's
// clock.
func NewLambdaClient(site *Site, seed int64) *LambdaClient {
	return lambda.NewClient(site.Sim, lambda.DefaultClientConfig(), seed)
}

// Scenario layer: the experiment catalog as first-class, enumerable,
// uniformly configured units. Every paper artifact — and every custom
// scenario the embedding program registers — is runnable by name with
// the same Config/Result contract, cancellable mid-run, and sweepable
// across seeds and option grids.

// Scenario describes one registered experiment scenario.
type Scenario = scenario.Spec

// ScenarioOption configures a scenario run.
type ScenarioOption = scenario.Option

// ScenarioOptionDoc documents one scenario-specific raw option.
type ScenarioOptionDoc = scenario.OptionDoc

// ScenarioConfig is the uniform configuration a scenario's Run reads.
type ScenarioConfig = scenario.Config

// ScenarioResult is the uniform result contract: flat metrics for
// sweeping and the typed value via Unwrap.
type ScenarioResult = scenario.Result

// ScenarioCancelError reports a scenario cut short by its context;
// errors.Is(err, context.Canceled) sees through it.
type ScenarioCancelError = scenario.CancelError

// Scenario options: the five uniform axes, the raw escape hatch, and
// the progress callback.
var (
	WithSeed     = scenario.WithSeed
	WithNodes    = scenario.WithNodes
	WithHorizon  = scenario.WithHorizon
	WithPolicy   = scenario.WithPolicy
	WithQPS      = scenario.WithQPS
	WithOption   = scenario.WithOption
	WithProgress = scenario.WithProgress
)

// Scenarios returns every registered scenario in name order: the full
// paper catalog (fib-day, var-day, fig1-fig3, fig7, table1, ablation,
// policy-comparison, scientific, endogenous, ...) plus anything the
// embedding program registered.
func Scenarios() []Scenario { return scenario.All() }

// RunScenario executes a registered scenario by name. Cancellation of
// ctx returns promptly (checked every simulated epoch) with a
// *ScenarioCancelError; the partial simulation is discarded.
func RunScenario(ctx context.Context, name string, opts ...ScenarioOption) (ScenarioResult, error) {
	return scenario.Run(ctx, name, opts...)
}

// RegisterScenario adds a custom scenario to the registry, making it
// runnable from both CLIs, the sweep grid, and RunScenario. See
// examples/scenario for a worked custom scenario.
func RegisterScenario(sp Scenario) { scenario.Register(sp) }

// NewScenarioResult bundles a typed value into the Result contract
// (for custom scenarios).
func NewScenarioResult(typed any, metrics map[string]float64) ScenarioResult {
	return scenario.NewResult(typed, metrics)
}

// RenderScenario prints a scenario result for humans: the typed
// value's paper-shaped rendering when it has one, an aligned table of
// its metrics otherwise.
func RenderScenario(w io.Writer, res ScenarioResult) { scenario.Fprint(w, res) }

// Typed results a scenario's Unwrap returns.

// DayResult is the fib-day / var-day / week-day result: the
// Simulation / Slurm-level / OpenWhisk-level perspectives plus the
// responsiveness report.
type DayResult = experiments.DayResult

// FrontierResult is the checkpoint-frontier scenario's cell grid.
type FrontierResult = experiments.FrontierResult

// Replicated sweeps: any registered scenario fans out across worker
// goroutines with decorrelated per-replica seeds and aggregates into
// mean/CI/quantile summaries. A sweep's output is bit-identical
// regardless of worker count.

// SweepConfig controls replica count, worker count and the base seed of
// a sweep.
type SweepConfig = sweep.Config

// SweepResult aggregates the replicas of one grid cell.
type SweepResult = sweep.Result

// ScenarioPoint is one sweep-grid cell over the scenario registry.
type ScenarioPoint = sweep.ScenarioPoint

// SweepScenarios fans registered scenarios across seeds and option
// grids by name: any scenario — paper catalog or custom-registered —
// becomes a multi-replica study with no experiment-specific glue. All
// cells are validated before anything runs.
func SweepScenarios(cfg SweepConfig, cells []ScenarioPoint) ([]SweepResult, error) {
	return sweep.SweepScenarios(cfg, cells)
}

// Streaming O(1)-memory metrics: week-scale runs (the catalog's
// "streaming" option) keep quantiles in mergeable t-digest sketches
// and recent traffic in windowed counters instead of unbounded
// buffers; the simulation itself is byte-identical either way — only
// what the accounting retains changes.

// DefaultDigestCompression is the compression the streaming runs use
// (rank error ≤ 3%).
const DefaultDigestCompression = stats.DefaultCompression

// DigestEpsilon is the documented worst-case rank-error bound of a
// t-digest built with the given compression.
func DigestEpsilon(compression float64) float64 {
	return stats.Epsilon(compression)
}
