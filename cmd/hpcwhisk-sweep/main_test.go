package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestBuildGridShape: without -scenario the grid runs the paper days
// per policy, with every axis set and named, in policy × qps × nodes
// order — var on its own day, every other policy on the fib day.
func TestBuildGridShape(t *testing.T) {
	points, err := buildScenarioGrid("", "fib,var,adaptive", "5,10", "64,128", 24, nil, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*2*2 {
		t.Fatalf("%d points, want 12", len(points))
	}
	want := []string{
		"fib/qps=5/nodes=64", "fib/qps=5/nodes=128", "fib/qps=10/nodes=64", "fib/qps=10/nodes=128",
		"var/qps=5/nodes=64", "var/qps=5/nodes=128", "var/qps=10/nodes=64", "var/qps=10/nodes=128",
		"adaptive/qps=5/nodes=64", "adaptive/qps=5/nodes=128", "adaptive/qps=10/nodes=64", "adaptive/qps=10/nodes=128",
	}
	for i, p := range points {
		if p.Name != want[i] {
			t.Errorf("point %d named %q, want %q", i, p.Name, want[i])
		}
		day := "fib-day"
		if strings.HasPrefix(p.Name, "var/") {
			day = "var-day"
		}
		if p.Scenario != day {
			t.Errorf("point %s runs %q, want %q", p.Name, p.Scenario, day)
		}
	}
}

func TestBuildGridErrors(t *testing.T) {
	// Unparsable axis values fail in the builder; semantic errors
	// (unknown policy, unknown -set key, out-of-range axes) fail in
	// SweepScenarios' upfront validation — see TestRunRejectsBadFlags
	// and TestLegacyGridHonorsSetOptions.
	cases := []struct{ scenarios, policies, qps, nodes string }{
		{"", "fib", "ten", "64"},
		{"", "fib", "10", "many"},
		{"fib-day", "", "ten", "64"},
	}
	explicit := map[string]bool{"qps": true, "nodes": true}
	for _, tc := range cases {
		if _, err := buildScenarioGrid(tc.scenarios, tc.policies, tc.qps, tc.nodes, 1, nil, explicit); err == nil {
			t.Errorf("buildScenarioGrid(%q, %q, %q, %q) succeeded, want error", tc.scenarios, tc.policies, tc.qps, tc.nodes)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown policy: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown policy") {
		t.Errorf("stderr %q lacks the unknown-policy error", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}

	// Out-of-range counts and axes fail SweepScenarios' upfront
	// validation: exit 2 with an error naming the culprit, and no
	// replica runs (a worker goroutine would panic on -hours 0 or on a
	// qps whose arrival interval truncates to 0 or overflows, a
	// negative QPS would silently sweep an unloaded day, and an -hours
	// past a time.Duration would wrap around to a short one). So do
	// option values only a scenario's own check refuses (an unknown
	// routing or supply policy in a list, a week-day base day other
	// than fib or var, a federation above the one-cluster node bound),
	// which every replica would otherwise fail on, and an unknown
	// -format, which would otherwise fail only after the whole sweep.
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-replicas", "0"}, "replica count"},
		{[]string{"-replicas", "-1"}, "replica count"},
		{[]string{"-hours", "0"}, "horizon"},
		{[]string{"-nodes", "0"}, "nodes"},
		{[]string{"-qps", "-1"}, "qps"},
		{[]string{"-qps", "-5", "-nodes", "48", "-hours", "1"}, "qps"},
		{[]string{"-scenario", "ablation", "-nodes", "0"}, "nodes"},
		{[]string{"-scenario", "fig7", "-set", "invocations=0", "-replicas", "2"}, "invocations"},
		{[]string{"-hours", "5124097"}, "-hours"},
		{[]string{"-nodes", "99999999999"}, "nodes"},
		{[]string{"-nodes", "64", "-hours", "1", "-qps", "2e9", "-replicas", "2"}, "qps"},
		{[]string{"-nodes", "64", "-hours", "1", "-qps", "1e-12", "-replicas", "2"}, "qps"},
		{[]string{"-scenario", "federated-day", "-set", "routing=nope"}, "routing"},
		{[]string{"-scenario", "federated-day", "-nodes", "600000", "-set", "sites=4"}, "sites × nodes"},
		{[]string{"-scenario", "week-day", "-set", "day=foo"}, "day"},
		{[]string{"-scenario", "policy-comparison", "-set", "policies=nope"}, "policies"},
		{[]string{"-scenario", "fib-day", "-nodes", "64", "-hours", "6", "-qps", "5", "-replicas", "4", "-format", "xml"}, "-format"},
	}
	for _, tc := range cases {
		out.Reset()
		errb.Reset()
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.wantErr) || strings.Contains(errb.String(), "panic:") {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errb.String(), tc.wantErr)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote results despite the error", tc.args)
		}
	}
}

// TestListScenarios: -list prints the sweepable catalog and exits 0.
func TestListScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"fib-day", "endogenous", "table1"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output lacks scenario %q", name)
		}
	}
}

// TestScenarioGridNaming: explicit grid axes land in the cell names,
// unset ones stay off (so each scenario keeps its paper defaults).
func TestScenarioGridNaming(t *testing.T) {
	cells, err := buildScenarioGrid("fib-day,var-day", "", "5,10", "64", 24, nil,
		map[string]bool{"qps": true, "nodes": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fib-day/qps=5/nodes=64", "fib-day/qps=10/nodes=64",
		"var-day/qps=5/nodes=64", "var-day/qps=10/nodes=64",
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Name != want[i] {
			t.Errorf("cell %d named %q, want %q", i, c.Name, want[i])
		}
	}

	cells, err = buildScenarioGrid("fig2", "fib", "10", "2239", 24, nil, map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Name != "fig2" {
		t.Fatalf("default-axes grid = %+v, want one bare fig2 cell", cells)
	}
}

// TestScenarioSweepRuns: a whole scenario sweep through the CLI, with
// a -set option applied to every cell.
func TestScenarioSweepRuns(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-scenario", "fig2", "-replicas", "2", "-seed", "5",
		"-set", "jobs=500", "-format", "csv"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fig2,jobs,2,500") {
		t.Errorf("csv lacks the fig2 jobs row proving the -set option applied:\n%s", out.String())
	}

	errb.Reset()
	if code := run([]string{"-scenario", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown scenario: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown scenario") {
		t.Errorf("stderr %q lacks the unknown-scenario error", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-scenario", "fig3", "-set", "jobs=1"}, &out, &errb); code != 2 {
		t.Errorf("option unknown to one scenario: exit %d, want 2", code)
	}

	// Gridding an axis a scenario does not honor fails fast instead
	// of fanning out identical duplicate cells.
	errb.Reset()
	if code := run([]string{"-scenario", "fig2", "-qps", "5,10,20"}, &out, &errb); code != 2 {
		t.Errorf("-qps grid over qps-less scenario: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "does not use the qps axis") {
		t.Errorf("stderr %q lacks the unused-axis error", errb.String())
	}

	// -scenario and the paper-day policy grid cannot combine: refusing
	// beats silently dropping the user's policy list.
	errb.Reset()
	if code := run([]string{"-scenario", "fig2", "-policy", "fib,adaptive"}, &out, &errb); code != 2 {
		t.Errorf("-scenario with -policy: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "cannot be combined") {
		t.Errorf("stderr %q lacks the conflict error", errb.String())
	}
}

// TestLegacyGridHonorsSetOptions: -set reaches the paper-day policy-grid
// cells — an unknown key fails the sweep's upfront validation, and a
// known day option runs through.
func TestLegacyGridHonorsSetOptions(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "fib", "-qps", "0", "-nodes", "48", "-hours", "1",
		"-replicas", "1", "-set", "bogus=7"}, &out, &errb); code != 2 {
		t.Errorf("unknown -set key on the policy grid: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no option") {
		t.Errorf("stderr %q lacks the unknown-option error", errb.String())
	}
	errb.Reset()
	out.Reset()
	if code := run([]string{"-policy", "fib", "-qps", "0", "-nodes", "48", "-hours", "1",
		"-replicas", "1", "-set", "actions=7", "-format", "csv"}, &out, &errb); code != 0 {
		t.Errorf("known -set key on the policy grid: exit %d, stderr: %s", code, errb.String())
	}
}

// TestRunGolden pins the output shape of a tiny deterministic grid in
// both formats. Regenerate with `go test ./cmd/hpcwhisk-sweep -run
// TestRunGolden -update` after an intentional change.
func TestRunGolden(t *testing.T) {
	args := []string{"-policy", "fib,lease", "-qps", "0", "-nodes", "48", "-hours", "1",
		"-replicas", "2", "-seed", "7", "-workers", "2"}
	for _, format := range []string{"json", "csv"} {
		format := format
		t.Run(format, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append(args, "-format", format), &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			golden := filepath.Join("testdata", "tiny_grid."+format)
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output diverged from %s (%d vs %d bytes); run with -update if intentional",
					golden, out.Len(), len(want))
			}
		})
	}
}

// TestRunWorkerCountInvariant re-checks the engine's core guarantee
// through the CLI: worker count never changes the bytes.
func TestRunWorkerCountInvariant(t *testing.T) {
	render := func(workers string) []byte {
		var out, errb bytes.Buffer
		args := []string{"-policy", "adaptive", "-qps", "0", "-nodes", "48", "-hours", "1",
			"-replicas", "3", "-seed", "9", "-workers", workers, "-format", "csv"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.Bytes()
	}
	if !bytes.Equal(render("1"), render("4")) {
		t.Error("1-worker and 4-worker sweeps rendered differently")
	}
}

// TestShardsFlag: there is no -shards flag, and no scenario has a
// shards option: -set shards=N exits 2 with "has no option" on the
// paper-day grid and on every registered scenario, federated-day
// included, before any replica runs.
func TestShardsFlag(t *testing.T) {
	check := func(args []string, wantErr string) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), wantErr) {
			t.Errorf("%v: stderr %q lacks %q", args, errb.String(), wantErr)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote results despite the error", args)
		}
	}
	check([]string{"-shards", "2"}, "flag provided but not defined: -shards")
	check([]string{"-policy", "fib,var", "-set", "shards=2", "-replicas", "1"}, "has no option")
	for _, name := range scenario.Names() {
		check([]string{"-scenario", name, "-set", "shards=2", "-replicas", "1"}, "has no option")
	}
}
