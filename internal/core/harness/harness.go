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
// records liveness, or the beam's steady-state replay) and
// "shard-execution" (injection runs).
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
	// Steady is the state a warm golden run leaves the machine in, built
	// on demand by BuildSteadyState for the beam simulator's live-board
	// chains. Immutable once built; clones share it.
	Steady *soc.SteadyState
}

// New builds a machine for the preset and model, loads the workload, boots,
// snapshots, and validates the golden run bit-for-bit against the native
// reference output.
func New(cfg soc.Config, model soc.ModelKind, built *bench.Built) (*Workbench, error) {
	m, snap, err := boot(cfg, model, built)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	w := &Workbench{Machine: m, Built: built, Snap: snap}
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

// boot makes a machine of the preset and model, loads the workload and
// stages its input, boots the kernel, and snapshots the post-boot state:
// the sequence New and Clone share, so a clone's snapshot is bit-equal to
// the original's.
func boot(cfg soc.Config, model soc.ModelKind, built *bench.Built) (*soc.Machine, *soc.Snapshot, error) {
	m, err := soc.NewMachine(cfg, model)
	if err != nil {
		return nil, nil, err
	}
	if err := m.LoadApp(built.Program); err != nil {
		return nil, nil, err
	}
	if len(built.Input) > 0 {
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			return nil, nil, fmt.Errorf("staging input: %w", err)
		}
	}
	if err := m.Boot(BootBudget); err != nil {
		return nil, nil, err
	}
	return m, m.SaveSnapshot(), nil
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
	m, snap, err := boot(w.Machine.Cfg, w.Machine.Model, w.Built)
	if err != nil {
		return nil, fmt.Errorf("harness: clone: %w", err)
	}
	m.LadderCrossCheck = w.Machine.LadderCrossCheck
	return &Workbench{
		Machine:  m,
		Built:    w.Built,
		Snap:     snap,
		Golden:   w.Golden,
		Watchdog: w.Watchdog,
		// The ladder, liveness log and steady state are immutable after
		// capture and every restore path deep-copies state out of them, so
		// siblings share one of each (their base snapshot is bit-equal to
		// the sibling's own).
		Ladder:   w.Ladder,
		Liveness: w.Liveness,
		Steady:   w.Steady,
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
	if err := w.validateReplay("instrumented replay", final); err != nil {
		return err
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

// BuildSteadyState captures the state a fault-free warm golden run leaves
// the machine in — the live board between executions — and installs it
// as Steady once the run is validated against the golden reference like
// an instrumented replay's. It captures no rungs and no fingerprint:
// beam chains restore the end state only.
func (w *Workbench) BuildSteadyState() error {
	var s *soc.SteadyState
	Phased("instrumented-replay", func() {
		s = w.Machine.CaptureSteadyState(w.Snap, GoldenBudget)
	})
	if err := w.validateReplay("steady-state replay", s.Final); err != nil {
		return err
	}
	w.Steady = s
	return nil
}

// validateReplay checks that a replay of the workload exited cleanly with
// the native reference output.
func (w *Workbench) validateReplay(what string, final soc.Result) error {
	if !final.CleanExit() {
		return fmt.Errorf("harness: %s of %s/%s did not exit cleanly: %v code=%#x",
			what, w.Built.Spec.Name, w.Built.Scale, final.Outcome, final.ExitCode)
	}
	if !bytes.Equal(final.Output, w.Built.Golden) {
		return fmt.Errorf("harness: %s output of %s/%s diverges from the native reference",
			what, w.Built.Spec.Name, w.Built.Scale)
	}
	return nil
}

// RunFaultLadder restores the snapshot (cold — caches reset, as GeFIN does
// on every experiment — or warm for the warm-cache ablation), injects the
// fault at its cycle, runs to completion or watchdog, and classifies the
// outcome. It also returns what the fault struck (resolved at the
// injection instant: live vs idle content, kernel vs user ownership — the
// injector-side observability of Section IV-C), the raw machine-level
// Result, and what the checkpoint ladder did for the run. When a matching
// ladder is installed the run goes through it transparently (zero stats
// otherwise); the Result is bit-identical either way.
func (w *Workbench) RunFaultLadder(f fault.Fault, warm bool) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	return w.runFault(f, warm, nil)
}

// RunFaultProv runs one fault like RunFaultLadder with a propagation
// provenance probe attached: the struck location is tainted at the
// injection instant (liveness resolved pre-flip), the memory and CPU
// models report lifecycle events on it into p, and all taint is disarmed
// again before returning — the probe is purely observational and the
// Result is bit-identical to the probe-free path. The caller reads the
// mechanism verdict via fault.MechanismOf; p.Armed() is false for targets
// without taint support (tag arrays). A nil p runs probe-free.
func (w *Workbench) RunFaultProv(f fault.Fault, warm bool, p *mem.Probe) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	return w.runFault(f, warm, p)
}

// runFault is the one fault-run body: the probe is armed only when p is
// non-nil.
func (w *Workbench) runFault(f fault.Fault, warm bool, p *mem.Probe) (fault.Class, fault.Context, soc.Result, soc.LadderStats) {
	if p != nil {
		core := w.Machine.Core()
		p.Reset(core.Cycles, core.PC)
	}
	var ctx fault.Context
	inject := func() {
		ctx = fault.ContextOf(w.Machine, f)
		if p != nil {
			fault.Arm(w.Machine, f, p)
		}
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
	if p != nil {
		fault.Disarm(w.Machine)
	}
	return fault.Classify(res, w.Built.Golden, w.Machine.Cfg.TimerPeriod), ctx, res, stats
}

// RunClean restores the cold snapshot and runs fault-free; useful for
// timing and determinism checks.
func (w *Workbench) RunClean() soc.Result {
	w.Machine.RestoreSnapshot(w.Snap, false)
	return w.Machine.Run(w.Watchdog)
}
