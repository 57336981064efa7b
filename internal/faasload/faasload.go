// Package faasload generates a realistic, heterogeneous FaaS invocation
// workload calibrated to the Azure Functions characterization the paper
// cites as its motivation ([2], Shahrad et al., USENIX ATC'20): half of
// all invocations complete within ~3 seconds, 90% within a minute, and
// function popularity is so skewed that a handful of hot functions
// dominate traffic. The paper names benchmarking HPC-Whisk under "a
// representative scientific FaaS workload" as future work (§VII); this
// package, together with experiments.RunScientificCtx, implements it.
package faasload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/whisk"
)

// Class buckets functions by their median execution time.
type Class string

// Function classes: Short completes within 3 s (the Azure median band),
// Medium within 30 s, Long above that. Long functions are registered as
// non-interruptible — §III-C warns that calls running longer than the
// grace period can fail on preemption, which RunScientificCtx measures.
const (
	ClassShort  Class = "short"
	ClassMedium Class = "medium"
	ClassLong   Class = "long"
)

// Spec parameterizes the workload.
type Spec struct {
	Functions int
	Seed      int64

	// MaxExec caps a single execution (the platform's function-runtime
	// ceiling).
	MaxExec time.Duration
}

// DefaultSpec returns the Azure-calibrated workload over n functions.
func DefaultSpec(n int, seed int64) Spec {
	return Spec{
		Functions: n,
		Seed:      seed,
		MaxExec:   240 * time.Second,
	}
}

// medianSeconds draws each function's median execution time, matching
// "50% under 3 s, 90% under 60 s".
var medianSeconds = dist.LognormalFromQuantiles(3.0, 60.0, 0.90)

// jitterSigma is the lognormal sigma of per-invocation variation around
// a function's median.
const jitterSigma = 0.25

// zipfS is the popularity skew exponent: weight(rank) = rank^-s.
const zipfS = 1.4

// memoryMB draws per-function memory sizes.
var memoryMB = dist.NewDiscrete(
	[]float64{128, 256, 512, 1024, 2048},
	[]float64{30, 35, 20, 10, 5},
)

// Function is one deployed function with its popularity weight.
type Function struct {
	Action *whisk.Action
	Weight float64
	Class  Class
	Median time.Duration
}

// Workload is a generated set of functions.
type Workload struct {
	Functions []Function
}

// Build materializes the workload deterministically.
func (s Spec) Build() *Workload {
	if s.Functions <= 0 {
		panic("faasload: need at least one function")
	}
	r := dist.NewRand(s.Seed)
	w := &Workload{Functions: make([]Function, s.Functions)}
	for i := 0; i < s.Functions; i++ {
		medianSec := medianSeconds.Sample(r)
		maxSec := s.MaxExec.Seconds()
		if medianSec > maxSec {
			medianSec = maxSec
		}
		median := time.Duration(medianSec * float64(time.Second))
		class := Classify(median)
		exec := execModel(medianSec, maxSec)
		fn := Function{
			Action: &whisk.Action{
				Name:     fmt.Sprintf("fn-%s-%03d", class, i),
				MemoryMB: int(memoryMB.Sample(r)),
				Exec:     exec,
				// Long-running functions opt out of mid-execution
				// interruption (§III-C's non-atomic side-effect caveat).
				Interruptible: class != ClassLong,
			},
			Weight: math.Pow(float64(i+1), -zipfS),
			Class:  class,
			Median: median,
		}
		w.Functions[i] = fn
	}
	return w
}

// Classify buckets a median execution time.
func Classify(median time.Duration) Class {
	switch {
	case median <= 3*time.Second:
		return ClassShort
	case median <= 30*time.Second:
		return ClassMedium
	default:
		return ClassLong
	}
}

func execModel(medianSec, maxSec float64) whisk.ExecFunc {
	ln := dist.Lognormal{Mu: math.Log(medianSec), Sigma: jitterSigma}
	capped := dist.Clamped{D: ln, Min: 0.001, Max: maxSec}
	return whisk.DistExec(capped)
}

// Register deploys every function on a controller.
func (w *Workload) Register(ctrl *whisk.Controller) {
	for _, f := range w.Functions {
		ctrl.RegisterAction(f.Action)
	}
}

// Names returns the action names in declaration order.
func (w *Workload) Names() []string {
	out := make([]string, len(w.Functions))
	for i, f := range w.Functions {
		out[i] = f.Action.Name
	}
	return out
}

// Weights returns the popularity weights aligned with Names.
func (w *Workload) Weights() []float64 {
	out := make([]float64, len(w.Functions))
	for i, f := range w.Functions {
		out[i] = f.Weight
	}
	return out
}

// ClassOf maps an action name back to its class ("" if unknown).
func (w *Workload) ClassOf(name string) Class {
	for _, f := range w.Functions {
		if f.Action.Name == name {
			return f.Class
		}
	}
	return ""
}
