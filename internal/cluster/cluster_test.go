package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewAllIdle(t *testing.T) {
	c := New(5)
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5", c.Len())
	}
	if c.Count(Idle) != 5 {
		t.Errorf("idle count = %d, want 5", c.Count(Idle))
	}
	for i := 0; i < 5; i++ {
		if c.State(i) != Idle {
			t.Errorf("node %d state = %v, want idle", i, c.State(i))
		}
	}
}

func TestSetTransitions(t *testing.T) {
	c := New(3)
	c.Set(1, Busy, time.Second)
	if c.State(1) != Busy {
		t.Errorf("state = %v, want busy", c.State(1))
	}
	if c.Count(Idle) != 2 || c.Count(Busy) != 1 {
		t.Errorf("counts idle=%d busy=%d", c.Count(Idle), c.Count(Busy))
	}
	c.Set(1, Pilot, 2*time.Second)
	if c.Count(Busy) != 0 || c.Count(Pilot) != 1 {
		t.Errorf("counts busy=%d pilot=%d", c.Count(Busy), c.Count(Pilot))
	}
}

func TestSetSameStateNoop(t *testing.T) {
	c := New(2)
	calls := 0
	c.OnChange(func(node int, from, to State, at time.Duration) { calls++ })
	c.Set(0, Idle, 0)
	if calls != 0 {
		t.Errorf("no-op transition fired observer")
	}
}

func TestOnChangeObserver(t *testing.T) {
	c := New(2)
	var gotNode int
	var gotFrom, gotTo State
	var gotAt time.Duration
	c.OnChange(func(node int, from, to State, at time.Duration) {
		gotNode, gotFrom, gotTo, gotAt = node, from, to, at
	})
	c.Set(1, Down, 7*time.Second)
	if gotNode != 1 || gotFrom != Idle || gotTo != Down || gotAt != 7*time.Second {
		t.Errorf("observer got (%d,%v,%v,%v)", gotNode, gotFrom, gotTo, gotAt)
	}
}

func TestNodesMembership(t *testing.T) {
	c := New(4)
	c.Set(0, Busy, 0)
	c.Set(2, Busy, 0)
	busy := c.Nodes(Busy)
	if len(busy) != 2 {
		t.Fatalf("busy nodes = %v", busy)
	}
	seen := map[int]bool{}
	for _, id := range busy {
		seen[id] = true
	}
	if !seen[0] || !seen[2] {
		t.Errorf("busy nodes = %v, want {0,2}", busy)
	}
}

func TestReserve(t *testing.T) {
	c := New(4)
	for _, i := range []int{1, 3} {
		c.Set(i, Reserved, 0)
	}
	if c.Count(Reserved) != 2 {
		t.Errorf("reserved = %d, want 2", c.Count(Reserved))
	}
	if c.Count(Idle) != 2 {
		t.Errorf("idle = %d, want 2", c.Count(Idle))
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Idle: "idle", Busy: "busy", Pilot: "pilot", Reserved: "reserved", Down: "down"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
	if State(200).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestNewZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

// Property: after any random transition sequence, per-state counts sum to
// Len and membership sets match the per-node states exactly.
func TestPropertyCountsConsistent(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(17)
		states := []State{Idle, Busy, Pilot, Reserved, Down}
		var now time.Duration
		for _, op := range ops {
			node := int(op) % c.Len()
			s := states[rng.Intn(len(states))]
			now += time.Millisecond
			c.Set(node, s, now)
		}
		total := 0
		for _, s := range states {
			total += c.Count(s)
			for _, id := range c.Nodes(s) {
				if c.State(id) != s {
					return false
				}
			}
		}
		return total == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
