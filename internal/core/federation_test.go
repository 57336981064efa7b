package core

import (
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/whisk"
	"repro/internal/workload"
)

// TestFederationOneSiteMatchesSystem is the byte-identity anchor of the
// federated refactor: a 1-site federation driven by the same trace and
// load must reproduce a bare single-cluster Site's outcome counters
// exactly — the front door adds no events, no RNG draws, and no
// allocation to the request path.
func TestFederationOneSiteMatchesSystem(t *testing.T) {
	type outcome struct {
		success, n503, lost, failed int
		pilots, handoffs            int
		healthyDur                  time.Duration
	}

	run := func(viaFederation bool) outcome {
		cfg := DefaultSystemConfig(16, "fib")
		cfg.Seed = 42

		var site *Site
		var backend loadgen.Backend
		if viaFederation {
			fed := NewFederation(FederationConfig{Sites: []SiteConfig{cfg}})
			site = fed.Sites[0]
			backend = fed
		} else {
			site = newSite(cfg)
			backend = loadgen.ForController(site.Ctrl)
		}

		site.LoadTrace(smallTrace(16, 2*time.Hour, 7, 6))
		site.Ctrl.RegisterAction(&whisk.Action{
			Name: "mini", MemoryMB: 256,
			Exec: whisk.FixedExec(10 * time.Millisecond), Interruptible: true,
		})
		gen := loadgen.New(site.Sim, backend, loadgen.Config{
			QPS: 2, Actions: []string{"mini"}, Duration: 2 * time.Hour,
		})
		gen.Start()
		site.Start()
		site.Run(2*time.Hour + 5*time.Minute)

		site.Manager.States.Finish(site.Sim.Now())
		totals := gen.Series.Totals()
		return outcome{
			success:    totals[loadgen.LabelSuccess],
			n503:       totals[loadgen.Label503],
			lost:       totals[loadgen.LabelLost],
			failed:     totals[loadgen.LabelFailed],
			pilots:     site.Manager.PilotsStarted,
			handoffs:   site.Manager.Handoffs,
			healthyDur: site.Manager.States.Healthy.Duration(),
		}
	}

	direct := run(false)
	fed := run(true)
	if direct != fed {
		t.Fatalf("1-site federation diverged from the bare system:\n direct: %+v\n fed:    %+v", direct, fed)
	}
	if direct.success == 0 {
		t.Fatal("comparison run served no traffic — not a meaningful identity check")
	}
}

// TestUniformFederationSeedStability: growing a uniform federation must
// not change the seeds (and hence the behaviour) of existing sites, and
// every site must get its own supply-policy instance.
func TestUniformFederationSeedStability(t *testing.T) {
	base := DefaultSystemConfig(8, "fib")
	base.Seed = 99
	small := UniformFederationConfig(2, base)
	big := UniformFederationConfig(5, base)
	for i := range small.Sites {
		if small.Sites[i].Seed != big.Sites[i].Seed {
			t.Fatalf("site %d seed changed when the federation grew: %d vs %d",
				i, small.Sites[i].Seed, big.Sites[i].Seed)
		}
	}
	seen := map[int64]bool{}
	for i, sc := range big.Sites {
		if seen[sc.Seed] {
			t.Fatalf("duplicate per-site seed at site %d", i)
		}
		seen[sc.Seed] = true
		if sc.Manager.Policy == base.Manager.Policy {
			t.Fatalf("site %d shares the base config's policy instance", i)
		}
	}
}

// TestFederationRouting: with one site dead (an empty availability
// trace → no idle windows → no invokers), a 2-site federation keeps
// serving through the live one.
func TestFederationRouting(t *testing.T) {
	base := DefaultSystemConfig(16, "fib")
	base.Seed = 5
	fcfg := UniformFederationConfig(2, base)
	fed := NewFederation(fcfg)

	// Site 0 gets a real availability trace; site 1 gets an empty one
	// (fully saturated by prime jobs, so no pilot ever starts).
	fed.LoadTrace(0, smallTrace(16, time.Hour, 11, 8))
	fed.LoadTrace(1, &workload.Trace{Nodes: 16, Horizon: time.Hour})
	fed.RegisterAction(&whisk.Action{
		Name: "routed", MemoryMB: 256,
		Exec: whisk.FixedExec(10 * time.Millisecond), Interruptible: true,
	})
	gen := loadgen.New(fed.Sim, fed, loadgen.Config{
		QPS: 2, Actions: []string{"routed"}, Duration: time.Hour,
	})
	gen.Start()
	fed.Start()
	fed.Run(time.Hour + 5*time.Minute)

	if gen.Series.Totals()[loadgen.LabelSuccess] == 0 {
		t.Fatal("federation with one live site served nothing")
	}
	if got := fed.Door.IssuedBySite[1]; got > fed.Door.NoSitePicks {
		t.Fatalf("dead site 1 received %d routed requests (NoSitePicks=%d)",
			got, fed.Door.NoSitePicks)
	}
	if fed.Door.Issued != gen.Issued {
		t.Fatalf("front door issued %d, generator issued %d", fed.Door.Issued, gen.Issued)
	}
}
