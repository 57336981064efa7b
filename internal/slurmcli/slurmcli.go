// Package slurmcli provides a textual porcelain over the Slurm emulator
// mirroring the commands the paper's job manager uses (§III-D: "the job
// manager is implemented as a shell script application, utilizing the
// available job management commands, mimicking the standard user
// interaction with the cluster"): sbatch, squeue, scancel, and sinfo.
//
// The porcelain parses a Slurm-compatible flag subset and renders
// Slurm-like tables, so scripts written against the real commands port
// to the emulator unchanged.
package slurmcli

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/slurm"
)

// Shell executes Slurm-style command lines against an emulator.
type Shell struct {
	emu  *slurm.Emulator
	jobs map[int]*slurm.Job
}

// New wraps an emulator.
func New(emu *slurm.Emulator) *Shell {
	return &Shell{emu: emu, jobs: map[int]*slurm.Job{}}
}

// Exec parses and runs one command line, returning its output.
func (s *Shell) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", fmt.Errorf("slurmcli: empty command")
	}
	switch fields[0] {
	case "sbatch":
		return s.sbatch(fields[1:])
	case "squeue":
		return s.squeue(fields[1:])
	case "scancel":
		return s.scancel(fields[1:])
	case "sinfo":
		return s.sinfo()
	default:
		return "", fmt.Errorf("slurmcli: unknown command %q", fields[0])
	}
}

// sbatch parses the §III-D submission flags:
//
//	sbatch --partition=NAME --nodes=N --time=MIN [--time-min=MIN]
//	       [--priority=P] [--job-name=NAME]
//
// Times accept Slurm's "minutes" and "HH:MM:SS" forms.
func (s *Shell) sbatch(args []string) (string, error) {
	spec := slurm.JobSpec{Nodes: 1}
	for _, a := range args {
		key, val, ok := splitFlag(a)
		if !ok {
			return "", fmt.Errorf("sbatch: bad argument %q", a)
		}
		switch key {
		case "--partition", "-p":
			spec.Partition = val
		case "--job-name", "-J":
			spec.Name = val
		case "--nodes", "-N":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return "", fmt.Errorf("sbatch: bad node count %q", val)
			}
			spec.Nodes = n
		case "--time", "-t":
			d, err := parseSlurmTime(val)
			if err != nil {
				return "", fmt.Errorf("sbatch: %v", err)
			}
			spec.TimeLimit = d
		case "--time-min":
			d, err := parseSlurmTime(val)
			if err != nil {
				return "", fmt.Errorf("sbatch: %v", err)
			}
			spec.TimeMin = d
		case "--priority":
			p, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return "", fmt.Errorf("sbatch: bad priority %q", val)
			}
			spec.Priority = p
		default:
			return "", fmt.Errorf("sbatch: unsupported flag %q", key)
		}
	}
	if spec.Partition == "" {
		return "", fmt.Errorf("sbatch: --partition is required")
	}
	if spec.TimeLimit <= 0 {
		return "", fmt.Errorf("sbatch: --time is required")
	}
	j := s.emu.Submit(spec)
	s.jobs[j.ID] = j
	return fmt.Sprintf("Submitted batch job %d", j.ID), nil
}

// squeue renders pending/running jobs submitted through this shell:
//
//	squeue [--state=pending|running|completing]
func (s *Shell) squeue(args []string) (string, error) {
	var filter slurm.JobState
	filtered := false
	for _, a := range args {
		key, val, ok := splitFlag(a)
		if !ok || (key != "--state" && key != "-t") {
			return "", fmt.Errorf("squeue: unsupported argument %q", a)
		}
		switch strings.ToLower(val) {
		case "pending", "pd":
			filter, filtered = slurm.Pending, true
		case "running", "r":
			filter, filtered = slurm.Running, true
		case "completing", "cg":
			filter, filtered = slurm.Completing, true
		default:
			return "", fmt.Errorf("squeue: unknown state %q", val)
		}
	}
	ids := make([]int, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %-10s %-12s %-4s %-6s %-10s\n",
		"JOBID", "PARTITION", "NAME", "ST", "NODES", "TIME")
	for _, id := range ids {
		j := s.jobs[id]
		if j.State == slurm.Done {
			continue
		}
		if filtered && j.State != filter {
			continue
		}
		elapsed := time.Duration(0)
		if j.State != slurm.Pending {
			elapsed = s.emu.Sim().Now() - j.Started
		}
		fmt.Fprintf(&b, "%10d %-10s %-12s %-4s %-6d %-10s\n",
			j.ID, j.Spec.Partition, orDefault(j.Spec.Name, "(none)"),
			stateCode(j.State), j.Spec.Nodes, formatElapsed(elapsed))
	}
	return b.String(), nil
}

// scancel cancels a pending job: scancel JOBID
func (s *Shell) scancel(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("scancel: want exactly one job id")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return "", fmt.Errorf("scancel: bad job id %q", args[0])
	}
	j, ok := s.jobs[id]
	if !ok {
		return "", fmt.Errorf("scancel: unknown job %d", id)
	}
	if !s.emu.Cancel(j) {
		return "", fmt.Errorf("scancel: job %d is not pending", id)
	}
	return "", nil
}

// sinfo summarizes node states like `sinfo -o "%t %D"`.
func (s *Shell) sinfo() (string, error) {
	cl := s.emu.Cluster()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s\n", "STATE", "NODES")
	for _, st := range []cluster.State{cluster.Idle, cluster.Busy, cluster.Pilot, cluster.Reserved, cluster.Down} {
		if n := cl.Count(st); n > 0 {
			fmt.Fprintf(&b, "%-10s %6d\n", st.String(), n)
		}
	}
	return b.String(), nil
}

func splitFlag(a string) (key, val string, ok bool) {
	if i := strings.IndexByte(a, '='); i > 0 {
		return a[:i], a[i+1:], true
	}
	return "", "", false
}

// parseSlurmTime accepts plain minutes ("90"), MM:SS ("90:00") and
// HH:MM:SS ("1:30:00"), like Slurm's --time.
func parseSlurmTime(v string) (time.Duration, error) {
	parts := strings.Split(v, ":")
	switch len(parts) {
	case 1:
		m, err := strconv.Atoi(parts[0])
		if err != nil || m <= 0 {
			return 0, fmt.Errorf("bad time %q", v)
		}
		return time.Duration(m) * time.Minute, nil
	case 2:
		m, err1 := strconv.Atoi(parts[0])
		sec, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || m < 0 || sec < 0 || sec > 59 {
			return 0, fmt.Errorf("bad time %q", v)
		}
		return time.Duration(m)*time.Minute + time.Duration(sec)*time.Second, nil
	case 3:
		h, err1 := strconv.Atoi(parts[0])
		m, err2 := strconv.Atoi(parts[1])
		sec, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || h < 0 || m > 59 || sec > 59 {
			return 0, fmt.Errorf("bad time %q", v)
		}
		return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute +
			time.Duration(sec)*time.Second, nil
	default:
		return 0, fmt.Errorf("bad time %q", v)
	}
}

func stateCode(st slurm.JobState) string {
	switch st {
	case slurm.Pending:
		return "PD"
	case slurm.Running:
		return "R"
	case slurm.Completing:
		return "CG"
	default:
		return "??"
	}
}

func formatElapsed(d time.Duration) string {
	d = d.Round(time.Second)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	sec := (d % time.Minute) / time.Second
	if h > 0 {
		return fmt.Sprintf("%d:%02d:%02d", h, m, sec)
	}
	return fmt.Sprintf("%d:%02d", m, sec)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
