// Package cluster models the machine park of an HPC installation: a set
// of nodes with exclusive-use states, commercial reservations, and cheap
// per-state membership queries. It is the node-state store used by the
// Slurm emulator and by the monitoring perspectives of the experiments.
package cluster

import (
	"fmt"
	"time"
)

// State is the exclusive occupancy state of a node.
type State uint8

// Node states. A node is Idle when no job occupies it, Busy when a prime
// HPC job runs on it, Pilot when an HPC-Whisk pilot job runs on it,
// Reserved when a commercial reservation excludes it from scheduling
// (§I: reserved nodes are excluded from all analyses), and Down during
// failures or maintenance.
const (
	Idle State = iota
	Busy
	Pilot
	Reserved
	Down
	numStates
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	case Pilot:
		return "pilot"
	case Reserved:
		return "reserved"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ChangeFunc observes a node transition at a virtual instant.
type ChangeFunc func(node int, from, to State, at time.Duration)

// Cluster tracks the state of every node with O(1) transitions and O(1)
// per-state membership listing.
type Cluster struct {
	states   []State
	sets     [numStates]stateSet
	onChange ChangeFunc
}

// New returns a cluster of n nodes, all Idle.
func New(n int) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one node")
	}
	c := &Cluster{states: make([]State, n)}
	for s := range c.sets {
		c.sets[s].init(n)
	}
	for i := 0; i < n; i++ {
		c.sets[Idle].add(i)
	}
	return c
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.states) }

// State returns the state of node i.
func (c *Cluster) State(i int) State { return c.states[i] }

// OnChange registers a single observer for node transitions.
func (c *Cluster) OnChange(fn ChangeFunc) { c.onChange = fn }

// Set transitions node i to state s at virtual instant at.
func (c *Cluster) Set(i int, s State, at time.Duration) {
	from := c.states[i]
	if from == s {
		return
	}
	c.sets[from].remove(i)
	c.sets[s].add(i)
	c.states[i] = s
	if c.onChange != nil {
		c.onChange(i, from, s, at)
	}
}

// Count returns the number of nodes in state s.
func (c *Cluster) Count(s State) int { return c.sets[s].len() }

// Nodes returns the ids of nodes in state s. The returned slice is owned
// by the cluster and is invalidated by the next Set; callers must not
// retain or mutate it.
func (c *Cluster) Nodes(s State) []int { return c.sets[s].ids }

// stateSet is an integer set with O(1) add/remove and slice iteration.
type stateSet struct {
	ids []int
	pos []int // pos[id] = index in ids, or -1
}

func (s *stateSet) init(n int) {
	s.pos = make([]int, n)
	for i := range s.pos {
		s.pos[i] = -1
	}
}

func (s *stateSet) len() int { return len(s.ids) }

func (s *stateSet) add(id int) {
	if s.pos[id] >= 0 {
		return
	}
	s.pos[id] = len(s.ids)
	s.ids = append(s.ids, id)
}

func (s *stateSet) remove(id int) {
	p := s.pos[id]
	if p < 0 {
		return
	}
	last := len(s.ids) - 1
	moved := s.ids[last]
	s.ids[p] = moved
	s.pos[moved] = p
	s.ids = s.ids[:last]
	s.pos[id] = -1
}
