package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// The checkpoint frontier maps where checkpoint/restore changes an
// execution's fate. Idle windows bound how long a pilot lives; a
// function whose body approaches (or exceeds) the window length is
// interrupted at every window end and, without checkpoints, restarts
// from zero — it can never finish, no matter how many windows it gets.
// With periodic checkpoints the same execution carries its progress
// across windows, paying transfer + restore each hop, and completes
// after a few resumes. The experiment sweeps function duration D
// against idle-window length W over a hand-built periodic trace and
// runs every cell twice (checkpointing on and off) on identical seeds;
// the frontier is the D×W region where the checkpointed run completes
// work the baseline loses.

// FrontierConfig parameterizes the duration × window sweep.
type FrontierConfig struct {
	Seed  int64
	Nodes int

	// Durations are the function body lengths (the D axis).
	Durations []time.Duration

	// Windows are the idle-window lengths of the periodic trace (the W
	// axis); Gap is the saturation between consecutive windows.
	Windows []time.Duration
	Gap     time.Duration

	// Horizon is the per-cell run length.
	Horizon time.Duration

	// CheckpointInterval is the cadence of the checkpointed arm.
	CheckpointInterval time.Duration

	// QPS drives a thin request stream: the cells measure fate, not
	// throughput, so the load stays far from saturating the pilots.
	QPS float64
}

// DefaultFrontierConfig spans both sides of the frontier: the shortest
// duration fits every window, the longest exceeds the shortest window
// outright.
func DefaultFrontierConfig(seed int64) FrontierConfig {
	return FrontierConfig{
		Seed:               seed,
		Nodes:              16,
		Durations:          []time.Duration{time.Minute, 3 * time.Minute, 6 * time.Minute},
		Windows:            []time.Duration{4 * time.Minute, 8 * time.Minute, 16 * time.Minute},
		Gap:                2 * time.Minute,
		Horizon:            2 * time.Hour,
		CheckpointInterval: 20 * time.Second,
		QPS:                0.05,
	}
}

// FrontierCell is one (duration, window) design point, run both ways.
type FrontierCell struct {
	Duration time.Duration
	Window   time.Duration

	// BaselineShare / CheckpointShare are the success shares of the two
	// arms (fraction of invoked requests that completed).
	BaselineShare   float64
	CheckpointShare float64

	// Work is the checkpointed arm's compute ledger.
	Work stats.WorkCounters
}

// Reclaimed reports whether checkpointing completed work the baseline
// lost in this cell, by a margin that ignores sampling noise.
func (c FrontierCell) Reclaimed() bool {
	return c.CheckpointShare > c.BaselineShare+0.05
}

// FrontierResult is the full sweep.
type FrontierResult struct {
	Config FrontierConfig
	Cells  []FrontierCell
}

// ReclaimedCells counts cells where the checkpointed arm won.
func (r FrontierResult) ReclaimedCells() int {
	n := 0
	for _, c := range r.Cells {
		if c.Reclaimed() {
			n++
		}
	}
	return n
}

// periodicTrace builds the frontier's idle surface: every node cycles
// through idle windows of length w separated by gap-long saturations,
// nodes in phase — so between windows the cluster has no pilot at all
// and a resume token must wait in the fast lane for the next window.
// DeclaredEnd equals End: the scheduler's window knowledge is exact,
// isolating the duration-vs-window geometry from declaration noise.
func periodicTrace(nodes int, horizon, w, gap time.Duration) *workload.Trace {
	tr := &workload.Trace{Nodes: nodes, Horizon: horizon}
	for start := time.Duration(0); start < horizon; start += w + gap {
		end := start + w
		if end > horizon {
			end = horizon
		}
		for n := 0; n < nodes; n++ {
			tr.Periods = append(tr.Periods, workload.IdlePeriod{
				Node: n, Start: start, End: end, DeclaredEnd: end,
			})
		}
	}
	tr.Sort()
	return tr
}

// frontierDay builds one arm's day configuration for a cell.
func (c FrontierConfig) frontierDay(d, w, interval time.Duration) DayConfig {
	return DayConfig{
		Policy:  "var", // sizes pilots to the declared windows
		Nodes:   c.Nodes,
		Horizon: c.Horizon,
		Seed:    c.Seed,
		Trace:   periodicTrace(c.Nodes, c.Horizon, w, c.Gap),
		QPS:     c.QPS,
		// A handful of action names spreads requests over invokers
		// without multiplying registration work.
		NumActions:         4,
		SleepExec:          d,
		GracefulHandoff:    true,
		InterruptRunning:   true,
		CheckpointInterval: interval,
		// The client timer must never decide a cell: outcomes are pilot
		// loss vs resume, so the timeout sits beyond any resume chain.
		ActionTimeout: c.Horizon,
	}
}

// RunFrontierCtx executes the sweep with cooperative cancellation and
// monotone progress over all cells (two day runs per cell).
func RunFrontierCtx(ctx context.Context, cfg FrontierConfig, progress ProgressFunc) (FrontierResult, error) {
	res := FrontierResult{Config: cfg}
	perDay := cfg.Horizon + dayDrain
	total := time.Duration(2*len(cfg.Durations)*len(cfg.Windows)) * perDay
	off := time.Duration(0)
	for _, d := range cfg.Durations {
		for _, w := range cfg.Windows {
			base, err := RunDayCtx(ctx, cfg.frontierDay(d, w, 0), offsetProgress(progress, off, total))
			if err != nil {
				return res, err
			}
			off += perDay
			ckpt, err := RunDayCtx(ctx, cfg.frontierDay(d, w, cfg.CheckpointInterval), offsetProgress(progress, off, total))
			if err != nil {
				return res, err
			}
			off += perDay
			res.Cells = append(res.Cells, FrontierCell{
				Duration:        d,
				Window:          w,
				BaselineShare:   base.Load.SuccessShare,
				CheckpointShare: ckpt.Load.SuccessShare,
				Work:            ckpt.Work,
			})
		}
	}
	return res, nil
}

// Render prints the success-share matrix, checkpointed over baseline,
// marking reclaimed cells.
func (r FrontierResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Checkpoint frontier — success share ckpt/base (interval %v, windows + %v gaps)\n",
		r.Config.CheckpointInterval, r.Config.Gap)
	fmt.Fprintf(w, "  %-10s", "dur \\ win")
	for _, win := range r.Config.Windows {
		fmt.Fprintf(w, " %14v", win)
	}
	fmt.Fprintln(w)
	i := 0
	for _, d := range r.Config.Durations {
		fmt.Fprintf(w, "  %-10v", d)
		for range r.Config.Windows {
			c := r.Cells[i]
			mark := " "
			if c.Reclaimed() {
				mark = "*"
			}
			fmt.Fprintf(w, "  %5.1f%%/%5.1f%%%s", 100*c.CheckpointShare, 100*c.BaselineShare, mark)
			i++
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  * checkpointing reclaimed the cell (%d of %d)\n", r.ReclaimedCells(), len(r.Cells))
}

// Metrics returns per-cell success shares plus the reclaimed count.
func (r FrontierResult) Metrics() map[string]float64 {
	m := map[string]float64{"reclaimed-cells": float64(r.ReclaimedCells())}
	for _, c := range r.Cells {
		key := fmt.Sprintf("d%s-w%s", c.Duration, c.Window)
		m[key+"-ckpt-share"] = c.CheckpointShare
		m[key+"-base-share"] = c.BaselineShare
		m[key+"-resumed"] = float64(c.Work.Resumed)
	}
	return m
}
