// Package harness prepares workloads for reliability experiments: it
// boots a machine, stages the workload and its input, captures the
// post-boot snapshot (the gem5-checkpoint analogue), validates the golden
// run against the native reference, and exposes single-fault runs with
// outcome classification. Both the GeFIN-like injection campaigns and the
// beam simulator build on it.
package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/mem"
	"armsefi/internal/soc"
)

// Phased runs fn under a pprof "phase" label, so -cpuprofile output
// attributes campaign time to its phase instead of one flat profile. The
// labels are "golden-replay" (the plain golden run New validates),
// "instrumented-replay" (the one replay that captures the ladder and/or
// records liveness) and "shard-execution" (injection runs).
func Phased(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
}

// Default cycle budgets.
const (
	// BootBudget bounds kernel boot.
	BootBudget = 50_000_000
	// GoldenBudget bounds a fault-free workload run.
	GoldenBudget = 4_000_000_000
)

// Liveness events store 32-bit cycle stamps (mem rejects a wider one) and
// an instrumented replay stamps only cycles below GoldenBudget: this
// declaration stops compiling if the budget outgrows the stamp.
const _ uint32 = GoldenBudget

// Workbench is a machine prepared to run one workload repeatedly.
type Workbench struct {
	Machine *soc.Machine
	Built   *bench.Built
	Snap    *soc.Snapshot
	// Golden is the fault-free run from the cold post-boot snapshot (the
	// conditions of every injection run).
	Golden soc.Result
	// Watchdog is the cycle budget for faulty runs before the host declares
	// a hang.
	Watchdog uint64
	// Ladder is the golden-run checkpoint ladder, built on demand by
	// Instrument (or BuildLadder). When present (and its warm mode
	// matches), fault runs fast-forward to the nearest rung below the
	// injection cycle and exit early on golden convergence. Immutable once
	// built; clones share it.
	Ladder *soc.Ladder
	// Liveness is the instrumented golden replay's liveness log, built on
	// demand by Instrument (or BuildLiveness) for campaigns that prune
	// provably-masked injections before simulating. Immutable once built;
	// clones share it.
	Liveness *soc.LivenessLog
}

// New builds a machine for the preset and model, loads the workload, boots,
// snapshots, and validates the golden run bit-for-bit against the native
// reference output.
func New(cfg soc.Config, model soc.ModelKind, built *bench.Built) (*Workbench, error) {
	m, err := soc.NewMachine(cfg, model)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if err := m.LoadApp(built.Program); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	if len(built.Input) > 0 {
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			return nil, fmt.Errorf("harness: staging input: %w", err)
		}
	}
	if err := m.Boot(BootBudget); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	w := &Workbench{Machine: m, Built: built, Snap: m.SaveSnapshot()}
	Phased("golden-replay", func() {
		m.RestoreSnapshot(w.Snap, false)
		w.Golden = m.Run(GoldenBudget)
	})
	if !w.Golden.CleanExit() {
		return nil, fmt.Errorf("harness: golden run of %s/%s did not exit cleanly: %v code=%#x",
			built.Spec.Name, built.Scale, w.Golden.Outcome, w.Golden.ExitCode)
	}
	if !bytes.Equal(w.Golden.Output, built.Golden) {
		return nil, fmt.Errorf("harness: golden output of %s/%s diverges from the native reference (%d vs %d bytes)",
			built.Spec.Name, built.Scale, len(w.Golden.Output), len(built.Golden))
	}
	w.Watchdog = 2*w.Golden.Cycles + 50*uint64(cfg.TimerPeriod)
	return w, nil
}

// Build assembles a workload spec at the given scale and prepares a
// workbench for it — the spec.Build + New sequence every campaign engine
// opens with, shared so the shard runners of the campaign service set up
// workloads exactly like the in-process engines do.
func Build(cfg soc.Config, model soc.ModelKind, spec bench.Spec, scale bench.Scale) (*Workbench, error) {
	built, err := spec.Build(soc.UserAsmConfig(), scale)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return New(cfg, model, built)
}

// Clone builds a sibling workbench over the same built workload: a fresh
// machine with the original's preset and model, booted to the same
// post-boot point. Because the machine is deterministic, the sibling's
// snapshot is bit-equal to the original's, so the golden run and watchdog
// are inherited rather than re-validated — a clone costs one kernel boot
// instead of a boot plus a full workload run (and no re-assembly: Built is
// shared read-only). Siblings share no mutable state; the parallel
// campaign engines give each worker goroutine its own workbench.
func (w *Workbench) Clone() (*Workbench, error) {
	m, err := soc.NewMachine(w.Machine.Cfg, w.Machine.Model)
	if err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	if err := m.LoadApp(w.Built.Program); err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	if len(w.Built.Input) > 0 {
		if err := m.PokeBytes(w.Built.InputAddr, w.Built.Input); err != nil {
			return nil, fmt.Errorf("harness: clone: staging input: %w", err)
		}
	}
	if err := m.Boot(BootBudget); err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	return &Workbench{
		Machine:  m,
		Built:    w.Built,
		Snap:     m.SaveSnapshot(),
		Golden:   w.Golden,
		Watchdog: w.Watchdog,
		// The ladder and liveness log are immutable after capture and every
		// restore path deep-copies state out of them, so siblings share one
		// of each (their base snapshot is bit-equal to the sibling's own).
		Ladder:   w.Ladder,
		Liveness: w.Liveness,
	}, nil
}

// BuildLadder captures the golden-run checkpoint ladder used to accelerate
// subsequent fault runs: Instrument with rungs every `every` cycles (zero
// picks the platform default) and no liveness recording.
func (w *Workbench) BuildLadder(every uint64, max int, warm bool) error {
	if every == 0 {
		every = soc.DefaultCheckpointEvery
	}
	return w.Instrument(every, max, false, warm)
}

// BuildLiveness records the campaign pre-filter's per-location liveness
// log alone: Instrument with no ladder.
func (w *Workbench) BuildLiveness(warm bool) error {
	return w.Instrument(0, 0, true, warm)
}

// Instrument performs one instrumented golden replay under the given warm
// mode (which must match later fault runs') and installs what it
// recorded: the checkpoint ladder when every > 0 — rungs every `every`
// cycles, at most max mid-run rungs, the effective spacing adapted to the
// golden run's length — and the liveness log the pre-filter, dedup and
// exhaustive modes classify against when live is set. The replay's Result
// is validated against the golden reference before anything is installed,
// so neither product can come from a diverged replay: a ladder can never
// change campaign results, and since decided pre-filter verdicts are
// exactly what simulation would conclude, pruning cannot either.
func (w *Workbench) Instrument(every uint64, max int, live, warm bool) error {
	if every > 0 {
		// Short golden runs shrink the spacing so the ladder still gets ~16
		// rungs to fast-forward and early-exit through: the paper-scale
		// default spacing would otherwise leave a sub-150k-cycle workload
		// with rung 0 alone. Long runs keep the configured spacing, and the
		// MaxCheckpoints bound grows it back if the rung count would exceed
		// the cap.
		if short := w.Golden.Cycles/16 + 1; every > short {
			every = short
		}
		if max > 0 {
			if need := w.Golden.Cycles/uint64(max) + 1; need > every {
				every = need
			}
		}
	}
	if every == 0 && !live {
		return nil
	}
	var (
		l   *soc.Ladder
		log *soc.LivenessLog
	)
	Phased("instrumented-replay", func() {
		l, log = w.Machine.ReplayGolden(w.Snap, warm, every, max, live, GoldenBudget)
	})
	var final soc.Result
	if l != nil {
		final = l.Final
	} else {
		final = log.Final
	}
	if !final.CleanExit() {
		return fmt.Errorf("harness: instrumented replay of %s/%s did not exit cleanly: %v code=%#x",
			w.Built.Spec.Name, w.Built.Scale, final.Outcome, final.ExitCode)
	}
	if !bytes.Equal(final.Output, w.Built.Golden) {
		return fmt.Errorf("harness: instrumented replay output of %s/%s diverges from the native reference",
			w.Built.Spec.Name, w.Built.Scale)
	}
	if !warm && !reflect.DeepEqual(final, w.Golden) {
		return fmt.Errorf("harness: instrumented replay of %s/%s is not bit-identical to the golden run (%+v vs %+v)",
			w.Built.Spec.Name, w.Built.Scale, final, w.Golden)
	}
	if l != nil {
		w.Ladder = l
	}
	if log != nil {
		w.Liveness = log
	}
	return nil
}

// RunFault restores the cold snapshot (caches reset, as GeFIN does on every
// experiment), injects the fault at its cycle, runs to completion or
// watchdog, and classifies the outcome.
func (w *Workbench) RunFault(f fault.Fault) fault.Class {
	return w.runFault(f, false)
}

// RunFaultWarm is the warm-cache ablation: injection runs start from the
// live post-boot cache state instead of reset caches.
func (w *Workbench) RunFaultWarm(f fault.Fault) fault.Class {
	return w.runFault(f, true)
}

func (w *Workbench) runFault(f fault.Fault, warm bool) fault.Class {
	cls, _ := w.RunFaultDetail(f, warm)
	return cls
}

// RunFaultDetail runs one fault and additionally reports what it struck
// (resolved at the injection instant): live vs idle content, kernel vs
// user ownership — the injector-side observability of Section IV-C.
func (w *Workbench) RunFaultDetail(f fault.Fault, warm bool) (fault.Class, fault.Context) {
	cls, ctx, _ := w.RunFaultFull(f, warm)
	return cls, ctx
}

// RunFaultFull runs one fault like RunFaultDetail and additionally
// returns the raw machine-level result (outcome, cycle count, output) —
// the per-injection record the observability trace captures before
// host-side classification collapses it to a class. When a matching
// ladder is installed the run goes through it transparently; the Result
// is bit-identical either way.
func (w *Workbench) RunFaultFull(f fault.Fault, warm bool) (fault.Class, fault.Context, soc.Result) {
	cls, ctx, res, _ := w.RunFaultLadder(f, warm)
	return cls, ctx, res
}

// RunFaultLadder runs one fault like RunFaultFull and additionally reports
// what the checkpoint ladder did for the run (zero stats when no matching
// ladder is installed and the run took the plain path).
func (w *Workbench) RunFaultLadder(f fault.Fault, warm bool) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	var ctx fault.Context
	inject := func() {
		ctx = fault.ContextOf(w.Machine, f)
		fault.Apply(w.Machine, f)
	}
	var res soc.Result
	var stats soc.LadderStats
	if w.Ladder != nil && w.Ladder.Warm() == warm {
		res, stats = w.Machine.RunLadderInjection(w.Ladder, w.Watchdog, f.Cycle, inject)
	} else {
		w.Machine.RestoreSnapshot(w.Snap, warm)
		res = w.Machine.RunWithInjection(w.Watchdog, f.Cycle, inject)
	}
	return fault.Classify(res, w.Built.Golden, w.Machine.Cfg.TimerPeriod), ctx, res, stats
}

// RunFaultProv runs one fault like RunFaultLadder with a propagation
// provenance probe attached: the struck location is tainted at the
// injection instant (liveness resolved pre-flip), the memory and CPU
// models report lifecycle events on it into p, and all taint is disarmed
// again before returning — the probe is purely observational and the
// Result is bit-identical to the probe-free paths. The caller reads the
// mechanism verdict via fault.MechanismOf; p.Armed() is false for targets
// without taint support (tag arrays).
func (w *Workbench) RunFaultProv(f fault.Fault, warm bool, p *mem.Probe) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	core := w.Machine.Core()
	p.Reset(core.Cycles, core.PC)
	var ctx fault.Context
	inject := func() {
		ctx = fault.ContextOf(w.Machine, f)
		fault.Arm(w.Machine, f, p)
		fault.Apply(w.Machine, f)
	}
	var res soc.Result
	var stats soc.LadderStats
	if w.Ladder != nil && w.Ladder.Warm() == warm {
		res, stats = w.Machine.RunLadderInjection(w.Ladder, w.Watchdog, f.Cycle, inject)
	} else {
		w.Machine.RestoreSnapshot(w.Snap, warm)
		res = w.Machine.RunWithInjection(w.Watchdog, f.Cycle, inject)
	}
	fault.Disarm(w.Machine)
	return fault.Classify(res, w.Built.Golden, w.Machine.Cfg.TimerPeriod), ctx, res, stats
}

// RunClean restores the cold snapshot and runs fault-free; useful for
// timing and determinism checks.
func (w *Workbench) RunClean() soc.Result {
	w.Machine.RestoreSnapshot(w.Snap, false)
	return w.Machine.Run(w.Watchdog)
}
