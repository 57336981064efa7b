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

func TestRunRejectsUnknownPolicy(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown policy: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown policy") {
		t.Errorf("stderr %q lacks the unknown-policy error", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-nonsense"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}

// stripTiming drops the wall-clock line, the only non-deterministic
// output.
func stripTiming(b []byte) []byte {
	var out [][]byte
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("(simulated ")) {
			continue
		}
		out = append(out, line)
	}
	return bytes.Join(out, []byte("\n"))
}

// TestRunGolden pins the rendered output of small deterministic runs:
// the hybrid hour with the per-minute series flags, and one run per
// path no paper-day golden reaches (faasload with lambda cold starts
// and cloud resumes, the federated cloud off-load, the job generator,
// and the adaptive, lease and hybrid policies). Regenerate with `go
// test ./cmd/hpcwhisk-sim -run TestRunGolden -update` after an
// intentional change.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"hybrid_hour", []string{"-policy", "hybrid", "-nodes", "48", "-hours", "1", "-qps", "2", "-seed", "7", "-minutes", "-series"}},
		{"scientific_resume", []string{"-scenario", "scientific", "-nodes", "256", "-hours", "2", "-set", "checkpoint-interval=30s"}},
		{"federated_offload", []string{"-scenario", "federated-day", "-nodes", "32", "-hours", "1", "-qps", "5", "-seed", "3",
			"-set", "sites=2", "-set", "routing=capacity-weighted", "-set", "cloud-fallback=true"}},
		{"endogenous", []string{"-scenario", "endogenous", "-nodes", "64", "-hours", "2"}},
		{"policy_comparison", []string{"-scenario", "policy-comparison", "-nodes", "64", "-hours", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			got := stripTiming(out.Bytes())
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output diverged from %s (%d vs %d bytes); run with -update if intentional",
					golden, len(got), len(want))
			}
		})
	}
}

// TestListScenarios: -list prints the whole catalog and exits 0.
func TestListScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"fib-day", "var-day", "fig1", "fig2", "fig3", "fig7",
		"table1", "ablation", "policy-comparison", "scientific", "endogenous"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output lacks scenario %q", name)
		}
	}
	if !strings.Contains(out.String(), "-set utilization=<float>") {
		t.Error("-list output lacks the per-scenario option docs")
	}
}

// TestGenericScenario: any registered scenario runs through the same
// flag surface with zero scenario-specific CLI code.
func TestGenericScenario(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "fig3", "-seed", "7"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Fig 3 —") {
		t.Errorf("output lacks the Fig 3 render:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `(simulated scenario "fig3"`) {
		t.Errorf("output lacks the timing line:\n%s", out.String())
	}
}

// TestSetOption: -set reaches the scenario; bad keys and values are
// rejected with exit 2 before anything runs.
func TestSetOption(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "fig2", "-set", "jobs=3000"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "3000 jobs") {
		t.Errorf("jobs option did not reach the scenario:\n%s", out.String())
	}

	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-scenario", "bogus"}, "unknown scenario"},
		{[]string{"-scenario", "fig2", "-set", "jobz=3000"}, "no option"},
		{[]string{"-scenario", "fig2", "-set", "jobs=many"}, "does not parse"},
		{[]string{"-scenario", "fig2", "-set", "noequals"}, "key=value"},
	}
	for _, tc := range cases {
		out.Reset()
		errb.Reset()
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.wantErr) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errb.String(), tc.wantErr)
		}
	}
}

// TestPolicyVarRunsVarDay: without -scenario, -policy var selects the
// var paper day (every other policy runs on the fib day).
func TestPolicyVarRunsVarDay(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-policy", "var", "-nodes", "48", "-hours", "1", "-qps", "0", "-seed", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table III — var day") {
		t.Errorf("output lacks the var-day header:\n%s", out.String())
	}
}

// TestRunRejectsOutOfRangeAxes: a uniform axis or scenario option
// outside its range is rejected with exit 2 and an error naming it,
// before anything runs — never a panic deep inside the trace generator
// or the experiment, an exhausted heap, or an -hours that wraps a
// time.Duration around to a short run.
func TestRunRejectsOutOfRangeAxes(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-hours", "0"}, "horizon"},
		{[]string{"-nodes", "0"}, "nodes"},
		{[]string{"-nodes", "-3"}, "nodes"},
		{[]string{"-qps", "-1"}, "qps"},
		{[]string{"-qps", "NaN"}, "qps"},
		{[]string{"-scenario", "ablation", "-nodes", "0"}, "nodes"},
		{[]string{"-scenario", "fig7", "-set", "invocations=0"}, "invocations"},
		{[]string{"-scenario", "table1", "-nodes", "64", "-hours", "5124097"}, "-hours"},
		{[]string{"-scenario", "fib-day", "-nodes", "99999999999"}, "nodes"},
		{[]string{"-scenario", "federated-day", "-set", "sites=10000000000"}, "sites"},
		// Rates the generator cannot pace (1s/qps truncates to 0 or
		// overflows) and durations that overflow an instant of the run.
		{[]string{"-scenario", "fib-day", "-nodes", "64", "-hours", "1", "-qps", "2e9"}, "qps"},
		{[]string{"-scenario", "fib-day", "-nodes", "64", "-hours", "1", "-qps", "1e-12"}, "qps"},
		{[]string{"-scenario", "fib-day", "-nodes", "64", "-hours", "1", "-set", "action-timeout=2562047h"}, "action-timeout"},
		{[]string{"-scenario", "fib-day", "-nodes", "64", "-hours", "1", "-set", "sleep-exec=2562047h"}, "sleep-exec"},
		{[]string{"-scenario", "var-day", "-nodes", "64", "-hours", "1", "-set", "sleep-exec=2562047h"}, "sleep-exec"},
		{[]string{"-scenario", "week-day", "-nodes", "64", "-hours", "1", "-set", "sleep-exec=2562047h"}, "sleep-exec"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.wantErr) || strings.Contains(errb.String(), "panic:") {
			t.Errorf("%v: stderr %q does not name %s (or reports a panic)", tc.args, errb.String(), tc.wantErr)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed results despite the error:\n%s", tc.args, out.String())
		}
	}
}

// TestShardsFlag: there is no -shards flag, and no scenario has a
// shards option: -set shards=N exits 2 with "has no option" on every
// registered scenario, federated-day included, before anything runs.
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
			t.Errorf("%v: printed results despite the error:\n%s", args, out.String())
		}
	}
	check([]string{"-shards", "2"}, "flag provided but not defined: -shards")
	for _, v := range []string{"0", "two"} {
		check([]string{"-scenario", "federated-day", "-set", "shards=" + v}, "has no option")
	}
	for _, name := range scenario.Names() {
		check([]string{"-scenario", name, "-set", "shards=2"}, "has no option")
	}
}
