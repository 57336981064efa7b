package slurmcli

import (
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/slurm"
	"repro/internal/workload"
)

func newShell(t *testing.T) (*des.Sim, *Shell) {
	t.Helper()
	sim := des.New()
	emu := slurm.New(sim, 4, slurm.DefaultConfig())
	emu.AddPartition(slurm.Partition{Name: "whisk", PriorityTier: 0})
	emu.AddPartition(slurm.Partition{Name: "hpc", PriorityTier: 1})
	emu.DriveTrace(&workload.Trace{Nodes: 4, Horizon: 2 * time.Hour, Periods: []workload.IdlePeriod{
		{Node: 0, Start: 0, End: time.Hour, DeclaredEnd: time.Hour},
	}})
	emu.Start()
	return sim, New(emu)
}

func TestSbatchAndSqueue(t *testing.T) {
	sim, sh := newShell(t)
	out, err := sh.Exec("sbatch --partition=whisk --time=14 --priority=14 --job-name=pilot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Submitted batch job 0") {
		t.Fatalf("sbatch output %q", out)
	}
	out, err = sh.Exec("squeue")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PD") || !strings.Contains(out, "pilot") {
		t.Fatalf("squeue output:\n%s", out)
	}
	sim.RunUntil(time.Minute)
	out, _ = sh.Exec("squeue --state=running")
	if !strings.Contains(out, " R ") {
		t.Fatalf("job not running:\n%s", out)
	}
	out, _ = sh.Exec("squeue --state=pending")
	if strings.Contains(out, "pilot") {
		t.Fatalf("pending filter leaked running job:\n%s", out)
	}
}

func TestSbatchTimeFormats(t *testing.T) {
	_, sh := newShell(t)
	cases := map[string]time.Duration{
		"90":      90 * time.Minute,
		"90:00":   90 * time.Minute,
		"1:30:00": 90 * time.Minute,
		"0:02:30": 2*time.Minute + 30*time.Second,
	}
	id := 0
	for in, want := range cases {
		if _, err := sh.Exec("sbatch --partition=whisk --time=" + in); err != nil {
			t.Fatalf("time %q: %v", in, err)
		}
		if got := sh.jobs[id].Spec.TimeLimit; got != want {
			t.Errorf("time %q parsed as %v, want %v", in, got, want)
		}
		id++
	}
}

func TestSbatchVariableLength(t *testing.T) {
	_, sh := newShell(t)
	if _, err := sh.Exec("sbatch --partition=whisk --time-min=2 --time=120"); err != nil {
		t.Fatal(err)
	}
	j := sh.jobs[0]
	if !j.Variable() {
		t.Error("job should be variable-length")
	}
	if j.Spec.TimeMin != 2*time.Minute || j.Spec.TimeLimit != 120*time.Minute {
		t.Errorf("parsed %v/%v", j.Spec.TimeMin, j.Spec.TimeLimit)
	}
}

func TestSbatchErrors(t *testing.T) {
	_, sh := newShell(t)
	bad := []string{
		"sbatch --time=10",                          // no partition
		"sbatch --partition=whisk",                  // no time
		"sbatch --partition=whisk --time=0",         // bad time
		"sbatch --partition=whisk --time=1:99:00",   // bad minutes
		"sbatch --partition=whisk --time=10 --x=1",  // unknown flag
		"sbatch --partition=whisk --time=10 nodes4", // not a flag
	}
	for _, cmd := range bad {
		if _, err := sh.Exec(cmd); err == nil {
			t.Errorf("%q should fail", cmd)
		}
	}
}

func TestScancel(t *testing.T) {
	_, sh := newShell(t)
	sh.Exec("sbatch --partition=whisk --time=10")
	if _, err := sh.Exec("scancel 0"); err != nil {
		t.Fatal(err)
	}
	if sh.jobs[0].State != slurm.Done {
		t.Error("job not cancelled")
	}
	if _, err := sh.Exec("scancel 0"); err == nil {
		t.Error("double cancel should fail")
	}
	if _, err := sh.Exec("scancel 99"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestSinfo(t *testing.T) {
	sim, sh := newShell(t)
	sim.RunUntil(time.Second) // let the trace's idle-start events fire
	out, err := sh.Exec("sinfo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "idle") || !strings.Contains(out, "busy") {
		t.Fatalf("sinfo output:\n%s", out)
	}
	// Start a pilot and observe the pilot state appear.
	sh.Exec("sbatch --partition=whisk --time=30")
	sim.RunUntil(time.Minute)
	out, _ = sh.Exec("sinfo")
	if !strings.Contains(out, "pilot") {
		t.Fatalf("sinfo missing pilot state:\n%s", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, sh := newShell(t)
	if _, err := sh.Exec("scontrol show"); err == nil {
		t.Error("unknown command should fail")
	}
	if _, err := sh.Exec(""); err == nil {
		t.Error("empty command should fail")
	}
}

// TestScriptedManagerLoop drives the §III-D replenishment loop purely
// through the porcelain, like the paper's shell script: keep 10 jobs of
// each fib length queued, re-submitting every 15 s.
func TestScriptedManagerLoop(t *testing.T) {
	sim, sh := newShell(t)
	lengths := []string{"2", "4", "6"}
	queued := func() map[string]int {
		out := map[string]int{}
		for id := 0; ; id++ {
			j := sh.jobs[id]
			if j == nil {
				return out
			}
			if j.State == slurm.Pending {
				out[j.Spec.TimeLimit.String()]++
			}
		}
	}
	replenish := func() {
		q := queued()
		for _, l := range lengths {
			want := 3
			d, _ := parseSlurmTime(l)
			for q[d.String()] < want {
				if _, err := sh.Exec("sbatch --partition=whisk --time=" + l + " --priority=" + l); err != nil {
					t.Fatal(err)
				}
				q[d.String()]++
			}
		}
	}
	sim.EveryFrom(0, 15*time.Second, replenish)
	sim.RunUntil(10 * time.Minute)
	// The single idle node keeps consuming jobs; the queue stays full.
	q := queued()
	for _, l := range []string{"2m0s", "4m0s", "6m0s"} {
		if q[l] != 3 {
			t.Errorf("queued[%s] = %d, want 3", l, q[l])
		}
	}
}
