package policy

import (
	"fmt"
	"sort"
)

// Factory builds a fresh, default-configured policy value. Policies
// are stateful, so every manager needs its own instance.
type Factory func() SupplyPolicy

var registry = map[string]Factory{}

// Register adds a policy factory under a name. Experiment configs and
// the CLI grids refer to policies by these names. Registering a
// duplicate or empty name panics (it is a programming error).
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("policy: Register needs a name and a factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: %q already registered", name))
	}
	registry[name] = f
}

// New builds a fresh default-configured policy by registry name.
func New(name string) (SupplyPolicy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New for callers whose name is already validated.
func MustNew(name string) SupplyPolicy {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("fib", func() SupplyPolicy { return NewFib(DefaultFibConfig()) })
	Register("var", func() SupplyPolicy { return NewVar(DefaultVarConfig()) })
	Register("adaptive", func() SupplyPolicy { return NewAdaptive() })
	Register("lease", func() SupplyPolicy { return NewLease(DefaultLeaseConfig()) })
	Register("hybrid", func() SupplyPolicy { return NewHybrid(DefaultHybridConfig()) })
}
