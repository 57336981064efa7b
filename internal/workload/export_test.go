package workload

// GenerateReserving is Generate, also returning how many periods it
// reserved for the trace up front.
func (cfg IdleProcessConfig) GenerateReserving() (*Trace, int) { return cfg.generate() }
