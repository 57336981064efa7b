package scenario

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Spec describes one registered scenario: stable name, the paper
// artifact it regenerates, one line of description, the documented
// scenario-specific options, and the run function. Specs are stateless
// — Run builds everything it needs from the Config — so one Spec value
// serves concurrent sweep replicas.
type Spec struct {
	// Name keys the registry ("fib-day", "table1", ...).
	Name string

	// Artifact names the paper artifact ("Table II / Fig. 5", ...);
	// beyond-paper scenarios say so here.
	Artifact string

	// Description is the one-line catalog entry.
	Description string

	// Options documents (and validates) the raw WithOption keys this
	// scenario understands, beyond the five uniform axes.
	Options []OptionDoc

	// Axes names the uniform axes (of "nodes", "horizon", "policy",
	// "qps"; seed is always honored) this scenario's Run actually
	// reads. Setting an axis outside this list is a validation error,
	// so a sweep can never fan out over an axis that has no effect
	// and silently produce duplicate cells. nil means all axes are
	// accepted (the permissive default for custom scenarios).
	Axes []string

	// Run executes the scenario. Implementations must honor ctx at
	// DES-epoch granularity (core.Site.RunCtx does this for any
	// simulation-backed scenario) and return ctx's error on
	// cancellation; the registry wraps it into a *CancelError.
	Run func(ctx context.Context, cfg Config) (Result, error)

	// loaded marks a catalog scenario whose experiment always drives
	// load, so qps 0 is an error rather than "load disabled".
	loaded bool

	// check vets a catalog scenario's option values that the per-option
	// schema cannot: a string naming a registry entry, or a bound on
	// options taken together. newConfig calls it once every option
	// parses and lies in range, so Validate refuses such values before
	// any replica runs; nil checks nothing.
	check func(cfg Config) error
}

var registry = map[string]Spec{}

// Register adds a scenario to the registry, making it runnable by name
// from both CLIs, the sweep grid, and hpcwhisk.RunScenario.
// Registering a duplicate or incomplete Spec panics (a programming
// error, as in the policy registry).
func Register(sp Spec) {
	if sp.Name == "" || sp.Run == nil {
		panic("scenario: Register needs a Name and a Run function")
	}
	if _, dup := registry[sp.Name]; dup {
		panic(fmt.Sprintf("scenario: %q already registered", sp.Name))
	}
	registry[sp.Name] = sp
}

// Lookup returns the Spec registered under name.
func Lookup(name string) (Spec, error) {
	sp, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return sp, nil
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered Spec in name order.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, name := range Names() {
		out = append(out, registry[name])
	}
	return out
}

// Validate resolves name and builds the config without running:
// unknown scenarios, unknown options, unparsable or out-of-range values,
// unknown policies and whatever the scenario's own check refuses are
// all caught here. Sweeps call it once per grid cell before fanning
// replicas out.
func Validate(name string, opts ...Option) error {
	sp, err := Lookup(name)
	if err != nil {
		return err
	}
	_, err = newConfig(sp, opts)
	return err
}

// Run executes a registered scenario. Cancellation surfaces as a
// *CancelError wrapping the context's error and locating the cut in
// virtual time; every other error passes through unchanged.
func Run(ctx context.Context, name string, opts ...Option) (Result, error) {
	sp, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	cfg, err := newConfig(sp, opts)
	if err != nil {
		return nil, err
	}

	// Observe progress so a cancellation can report where it struck.
	var done, total time.Duration
	inner := cfg.progress
	cfg.progress = func(d, t time.Duration) {
		done, total = d, t
		if inner != nil {
			inner(d, t)
		}
	}

	res, err := sp.Run(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return res, &CancelError{Scenario: name, Done: done, Total: total, Err: err}
		}
		return res, err
	}
	return res, nil
}
