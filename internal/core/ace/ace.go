// Package ace implements ACE lifetime analysis, the single-simulation
// vulnerability-estimation methodology the paper's Section II positions
// between probabilistic models and statistical fault injection (Mukherjee
// et al. [12]; accuracy examined against injection by Wang et al. [28]).
//
// One instrumented golden run — the liveness replay whose event streams
// the campaign pre-filter reads — measures, for every cache line and TLB
// entry, how long each value remained architecturally correct-execution
// relevant (from fill/write to last consuming read, or to writeback). The
// per-structure AVF estimate is ACE-cycles / (capacity x time). Because
// the analysis is per-line rather than per-bit, it systematically
// over-estimates AVF relative to fault injection — the bias [28]
// quantifies and the AblationACEvsInjection bench reproduces.
package ace

import (
	"fmt"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
)

// Config parameterises an ACE analysis run.
type Config struct {
	Preset soc.Config
	Model  soc.ModelKind
	Scale  bench.Scale
	// Obs attaches the campaign observability layer: each analysis pass
	// reports its per-component AVF estimate and wall time into the
	// metrics registry. Nil (the default) disables instrumentation.
	Obs *obs.Observer `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Preset.Name == "" {
		c.Preset = soc.PresetModel()
	}
	if c.Model == 0 {
		c.Model = soc.ModelDetailed
	}
	if c.Scale == 0 {
		c.Scale = bench.ScaleTiny
	}
	return c
}

// ComponentEstimate is the ACE result for one structure.
type ComponentEstimate struct {
	Comp fault.Component
	// AVF is the ACE-cycles / (entries x window) estimate.
	AVF float64
	// ValuesTotal and ValuesRead count value lifetimes observed and those
	// consumed at least once.
	ValuesTotal uint64
	ValuesRead  uint64
}

// Result is one workload's ACE analysis.
type Result struct {
	Workload     string
	Scale        bench.Scale
	GoldenCycles uint64
	Components   []ComponentEstimate
}

// Component returns one structure's estimate.
func (r *Result) Component(c fault.Component) (ComponentEstimate, bool) {
	for _, e := range r.Components {
		if e.Comp == c {
			return e, true
		}
	}
	return ComponentEstimate{}, false
}

// Run performs the instrumented golden run for one workload. It needs a
// single simulation — the methodology's selling point — and returns AVF
// estimates for the five memory structures (the register file is outside
// ACE's residency model). The run is the cold liveness replay the
// campaign pre-filter records: its recorders keep each slot's value
// lifetimes alongside the event stream, so the estimates come from the
// same hooks.
func Run(cfg Config, spec bench.Spec) (*Result, error) {
	cfg = cfg.withDefaults()
	wb, err := harness.Build(cfg.Preset, cfg.Model, spec, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("ace: %w", err)
	}
	start := time.Now()
	if err := wb.BuildLiveness(false); err != nil {
		return nil, fmt.Errorf("ace: %w", err)
	}
	wall := time.Since(start)
	log := wb.Liveness
	out := &Result{
		Workload:     spec.Name,
		Scale:        cfg.Scale,
		GoldenCycles: log.Final.Cycles,
	}
	for _, s := range []struct {
		comp fault.Component
		rec  interface {
			ACE(cycles uint64) (avf float64, total, read uint64)
		}
	}{
		{fault.CompL1I, log.L1I},
		{fault.CompL1D, log.L1D},
		{fault.CompL2, log.L2},
		{fault.CompITLB, log.ITLB},
		{fault.CompDTLB, log.DTLB},
	} {
		est := ComponentEstimate{Comp: s.comp}
		est.AVF, est.ValuesTotal, est.ValuesRead = s.rec.ACE(log.Final.Cycles)
		out.Components = append(out.Components, est)
		cfg.Obs.AceRun(spec.Name, est.Comp, est.AVF, wall)
	}
	return out, nil
}
