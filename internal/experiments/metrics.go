package experiments

import "time"

// Metrics methods flatten each experiment's result into the named-scalar
// form the sweep engine aggregates across replicas. Names are stable:
// they key the JSON/CSV output of cmd/hpcwhisk-sweep and the summaries
// in sweep.Result, so renaming one is a breaking change to saved sweeps.

// Metrics returns the headline Table II/III and Fig. 5b/6b numbers.
func (r DayResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"live-coverage":  r.Coverage(),
		"sim-bound":      r.Sim.Coverage(),
		"healthy-avg":    r.OW.HealthyAvg,
		"warmup-avg":     r.OW.WarmupAvg,
		"available-avg":  r.SlurmLevel.AvailableAvg,
		"no-invoker-min": r.OW.NoInvokerTotal.Minutes(),
		"ready-span-min": r.OW.ReadySpanAvg.Minutes(),
		"pilots-started": float64(r.PilotsStarted),
		"preempted":      float64(r.Preempted),
		"handoffs":       float64(r.Handoffs),
	}
	if r.Config.QPS > 0 {
		m["invoked-share"] = r.Load.InvokedShare
		m["success-share"] = r.Load.SuccessShare
		m["lost-share"] = r.Load.LostShare
		m["median-latency-ms"] = float64(r.Load.MedianLatency.Milliseconds())
	}
	if r.Config.Streaming {
		m["metrics-bytes"] = float64(r.MetricsBytes)
	}
	// Config-gated, not ledger-gated: goodput accrues on every
	// run, but the ledger is only a headline when checkpointing is on.
	if r.Config.CheckpointInterval > 0 {
		m["checkpoints"] = float64(r.Work.Checkpoints)
		m["resumed"] = float64(r.Work.Resumed)
		m["cloud-resumes"] = float64(r.Work.CloudResumes)
		m["goodput-share"] = r.Work.GoodputShare()
		m["wasted-s"] = r.Work.Wasted.Seconds()
		m["lost-work-s"] = r.Work.Lost.Seconds()
		m["checkpoint-s"] = r.Work.CheckpointTime.Seconds()
		m["restore-s"] = r.Work.RestoreTime.Seconds()
	}
	return m
}

// Metrics returns the §VII scientific-workload headline numbers.
func (r ScientificResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"invoked-share":  r.Load.InvokedShare,
		"success-share":  r.Load.SuccessShare,
		"fallback-share": r.FallbackShare,
		"pilots-started": float64(r.PilotsStarted),
		"handoffs":       float64(r.Handoffs),
	}
	if r.Config.CheckpointInterval > 0 {
		m["checkpoints"] = float64(r.Work.Checkpoints)
		m["resumed"] = float64(r.Work.Resumed)
		m["cloud-resumes"] = float64(r.CloudResumes)
		m["lost-work-s"] = r.Work.Lost.Seconds()
	}
	return m
}

// Metrics returns the full-scheduler headline numbers.
func (r EndogenousResult) Metrics() map[string]float64 {
	return map[string]float64{
		"prime-utilization": r.PrimeUtilization,
		"idle-share":        r.IdleShare,
		"pilot-share":       r.PilotShare,
		"pilot-coverage":    r.PilotCoverage,
		"mean-wait-s":       r.MeanWait.Seconds(),
		"p95-wait-s":        r.P95Wait.Seconds(),
		"jobs-completed":    float64(r.JobsCompleted),
		"pilots-started":    float64(r.PilotsStarted),
	}
}

// Metrics returns one lost-share metric per hand-off design point.
func (r AblationResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Variant.Name+"-lost-share"] = row.LostShare
	}
	return m
}

// Metrics returns the §I idle-surface headline numbers of Fig. 1.
func (r Fig1Result) Metrics() map[string]float64 {
	return map[string]float64{
		"mean-idle-nodes":     r.MeanIdle,
		"median-idle-nodes":   r.MedianIdle,
		"p99-idle-nodes":      r.P99Idle,
		"median-period-min":   r.MedianPeriod.Minutes(),
		"mean-period-min":     r.MeanPeriod.Minutes(),
		"tail-over-23min":     r.TailOver23m,
		"zero-idle-share":     r.ZeroIdleShare,
		"longest-zero-idle-h": r.LongestZeroIdle.Hours(),
		"idle-surface-node-h": r.TotalIdleSurface.Hours(),
		"idle-periods":        float64(r.Periods),
	}
}

// Metrics returns the Fig. 2 job-stream headline numbers.
func (r Fig2Result) Metrics() map[string]float64 {
	return map[string]float64{
		"median-limit-min":   r.MedianLimit.Minutes(),
		"p5-limit-min":       r.P5Limit.Minutes(),
		"median-runtime-min": r.MedianRuntime.Minutes(),
		"median-slack-min":   r.MedianSlack.Minutes(),
		"jobs":               float64(r.Jobs),
	}
}

// Metrics returns the Fig. 3 motivating-example headline numbers.
func (r Fig3Result) Metrics() map[string]float64 {
	return map[string]float64{
		"makespan-min":   r.Makespan.Minutes(),
		"avg-idle-nodes": r.AvgIdleNodes,
		"ready-coverage": r.ReadyCoverage,
		"gap-coverage":   r.GapCoverage,
		"pilots-started": float64(r.PilotsStarted),
	}
}

// Metrics returns one ready-share metric per Table I length set plus
// the winning share.
func (r TableIResult) Metrics() map[string]float64 {
	m := map[string]float64{"best-ready-share": r.Best.ShareReady}
	for _, row := range r.Rows {
		m[row.Set.Name+"-ready-share"] = row.ShareReady
		m[row.Set.Name+"-warmup-share"] = row.ShareWarmup
	}
	return m
}

// Metrics returns per-function medians and speedups of Fig. 7.
func (r Fig7Result) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Function+"-prometheus-ms"] = float64(row.PrometheusMedian) / float64(time.Millisecond)
		m[row.Function+"-lambda-ms"] = float64(row.LambdaMedian) / float64(time.Millisecond)
		m[row.Function+"-speedup"] = row.Speedup
	}
	return m
}
