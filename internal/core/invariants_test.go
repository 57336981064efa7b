package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// TestSystemInvariants runs randomized deployments under churn and load
// and checks system-wide invariants at every simulated minute:
//
//  1. cluster state counts always partition the node set;
//  2. every healthy invoker lives inside a pilot-occupied node
//     (healthy ≤ pilot nodes);
//  3. the controller's healthy count equals the manager's;
//  4. the pilot queue never exceeds the configured supply depth;
//  5. every issued invocation completes exactly once (conservation),
//     checked after the drain.
func TestSystemInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			policyName := "fib"
			if seed%2 == 1 {
				policyName = "var"
			}
			cfg := DefaultSystemConfig(32, policyName)
			cfg.Seed = seed
			s := newSite(cfg)
			trCfg := workload.DefaultIdleProcess(32, 3*time.Hour, seed+1)
			trCfg.MeanIdleNodes = 5
			trCfg.SaturatedFraction = 0.05
			s.LoadTrace(trCfg.Generate())

			s.Ctrl.RegisterAction(&whisk.Action{
				Name: "inv-a", Exec: whisk.FixedExec(400 * time.Millisecond), Interruptible: true,
			})
			s.Ctrl.RegisterAction(&whisk.Action{
				Name: "inv-b", Exec: whisk.FixedExec(8 * time.Second), Interruptible: false,
			})

			issued, completed := 0, 0
			tick := s.Sim.Every(700*time.Millisecond, func() {
				name := "inv-a"
				if issued%3 == 0 {
					name = "inv-b"
				}
				issued++
				s.Ctrl.Invoke(name, func(*whisk.Invocation) { completed++ })
			})

			cl := s.Slurm.Cluster()
			maxQueue := len(SetA1) * 10
			if policyName == "var" {
				maxQueue = 100
			}
			check := s.Sim.Every(time.Minute, func() {
				now := s.Sim.Now()
				sum := cl.Count(cluster.Idle) + cl.Count(cluster.Busy) +
					cl.Count(cluster.Pilot) + cl.Count(cluster.Reserved) +
					cl.Count(cluster.Down)
				if sum != cl.Len() {
					t.Fatalf("t=%v: state counts sum to %d of %d", now, sum, cl.Len())
				}
				healthy := s.Ctrl.HealthyCount()
				if healthy > cl.Count(cluster.Pilot) {
					t.Fatalf("t=%v: %d healthy invokers on %d pilot nodes",
						now, healthy, cl.Count(cluster.Pilot))
				}
				if healthy != s.Manager.States.healthy {
					t.Fatalf("t=%v: controller healthy %d != manager healthy %d",
						now, healthy, s.Manager.States.healthy)
				}
				if q := s.Slurm.QueuedPilots(); q > maxQueue {
					t.Fatalf("t=%v: pilot queue %d exceeds depth %d", now, q, maxQueue)
				}
			})

			s.Start()
			s.Run(3 * time.Hour)
			tick.Stop()
			check.Stop()
			s.Run(5 * time.Minute) // drain

			if completed != issued {
				t.Fatalf("conservation broken: %d issued, %d completed", issued, completed)
			}
			total := s.Ctrl.NSuccess + s.Ctrl.NFailed + s.Ctrl.NTimeout + s.Ctrl.N503
			if total != issued {
				t.Fatalf("controller counters %d != issued %d", total, issued)
			}
		})
	}
}
