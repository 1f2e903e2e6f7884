// Checkpoint ladder: cycle-stamped mid-run machine checkpoints captured
// during one instrumented golden replay, used by the campaign engines to
// (a) fast-forward injection runs past the fault-free prefix by restoring
// the nearest rung at or below the injection cycle instead of replaying
// from the post-boot snapshot, and (b) stop a faulty run early when its
// state fingerprint matches the golden ladder's at a rung: from that
// point execution is deterministic and identical to the golden run, so
// the outcome is the golden Result — the optimisation that turns the
// dominant Masked class from full-runtime into prefix-runtime, as ARMORY
// and gem5-checkpoint (CHAOS-style) injectors do.
//
// Restores are bit-identical to full replay on the live-state surface:
// counters (cycle, instruction, sequence numbers) come back verbatim, so
// every absolute cycle stamp inside the pipeline, timer, and LRU arrays
// lines up with the golden timeline, and a fingerprint taken on a
// restored-and-resumed machine equals one taken on a machine that
// replayed every cycle.

package soc

import (
	"fmt"
	"sort"

	"armsefi/internal/cpu"
	"armsefi/internal/mem"
)

// Checkpoint is one ladder rung: the complete machine state at a cycle
// boundary of the golden run, plus the state fingerprint used for the
// golden-convergence early exit.
type Checkpoint struct {
	// Cycle is the core cycle counter at capture (run-relative ==
	// absolute: golden runs start from LoadArch at cycle zero).
	Cycle uint64
	// Fingerprint is the 64-bit live-state hash at this rung.
	Fingerprint uint64

	// microFP is the non-DRAM prefix of Fingerprint (core micro-state,
	// caches, TLBs, devices). The early-exit check compares it first: it
	// hashes kilobytes instead of the whole DRAM image, and a diverged run
	// almost always differs here, making the per-crossing cost tiny.
	microFP uint64

	// lastBeatAbs is the capture run's last-heartbeat cycle at this rung;
	// it lives outside machine state (the run loop tracks it), so the
	// early-exit comparison checks it explicitly.
	lastBeatAbs uint64

	machineState
}

// machineState is the complete machine state a restore brings back, with
// DRAM stored as a frozen page image (pages unwritten since the previous
// capture or the post-boot snapshot are the same objects, and every
// worker of a pool shares them).
type machineState struct {
	img   *mem.Image
	micro *cpu.MicroState
	l1i   *mem.CacheState
	l1d   *mem.CacheState
	l2    *mem.CacheState
	itlb  *mem.TLBState
	dtlb  *mem.TLBState
	timer timerState
	sysc  sysCtlState
	uart  []byte
}

// Ladder is the checkpoint ladder of one golden run: rung 0 is the
// post-restore state at cycle zero, and subsequent rungs are spaced
// EffectiveEvery cycles apart (first cycle boundary actually reached on
// the atomic model, which can skip boundaries). It holds no end state:
// an injection run restores rungs only. Immutable after capture; safe to
// restore concurrently into sibling machines.
type Ladder struct {
	// Final is the complete golden Result of the capture run; the early
	// exit returns it verbatim.
	Final Result

	base  *Snapshot
	warm  bool
	every uint64
	rungs []*Checkpoint
}

// LadderStats reports what the ladder did for one injection run.
type LadderStats struct {
	// FastForwarded is the golden-prefix cycle count skipped by the rung
	// restore (zero when the run started from rung 0).
	FastForwarded uint64
	// EarlyExit reports that the run was cut short by golden convergence.
	EarlyExit bool
	// TailSaved is the cycle count not executed thanks to the early exit
	// (golden total minus the convergence cycle).
	TailSaved uint64
	// DivergedAt is the cycle of the first rung crossing whose fingerprint
	// did NOT match golden — the cheapest upper bound on when the fault's
	// architectural effect was still visible. Zero when every crossing
	// matched (or none was compared).
	DivergedAt uint64
	// ConvergedAt is the cycle of the rung where the early exit fired
	// (zero when the run never converged back onto the golden ladder).
	ConvergedAt uint64
}

// Warm reports which restore mode the ladder was captured under.
func (l *Ladder) Warm() bool { return l.warm }

// Rungs returns the number of mid-run rungs (including rung 0).
func (l *Ladder) Rungs() int { return len(l.rungs) }

// EffectiveEvery returns the rung spacing actually used.
func (l *Ladder) EffectiveEvery() uint64 { return l.every }

// MemoryBytes estimates the ladder's retained memory: DRAM pages the
// post-boot snapshot does not hold and the rungs' page tables, core
// micro-states, cache set contents and per-set indexes, TLB copies, UART
// backlogs, and fixed per-rung bookkeeping. A page or cache set several
// rungs share is counted once — see SharedBytes for the saving.
func (l *Ladder) MemoryBytes() int {
	total, _ := mem.ImageBytes(l.base.dram, l.images())
	for _, c := range l.rungs {
		total += len(c.uart) + 1024 + c.micro.MemoryBytes()
		for _, cs := range []*mem.CacheState{c.l1i, c.l1d, c.l2} {
			total += cs.MemoryBytes() + cs.IndexBytes()
		}
		for _, ts := range []*mem.TLBState{c.itlb, c.dtlb} {
			total += ts.MemoryBytes()
		}
	}
	return total
}

// SharedBytes reports the DRAM page and cache-set bytes the ladder's
// rungs share with earlier rungs instead of copying — memory a
// copy-per-rung encoding would have duplicated. Additionally, because
// every rung is immutable, all workers of a pool restore from the same
// ladder with no per-worker rung copies at all; the
// armsefi_ladder_shared_bytes metric surfaces this figure.
func (l *Ladder) SharedBytes() int {
	_, total := mem.ImageBytes(l.base.dram, l.images())
	for _, c := range l.rungs {
		for _, cs := range []*mem.CacheState{c.l1i, c.l1d, c.l2} {
			total += cs.SharedBytes()
		}
	}
	return total
}

// images returns every rung's DRAM image.
func (l *Ladder) images() []*mem.Image {
	var imgs []*mem.Image
	for _, c := range l.rungs {
		imgs = append(imgs, c.img)
	}
	return imgs
}

// RungCycleFor returns the cycle of the highest rung at or below cycle —
// the rung RunLadderInjection would restore for an injection at that
// cycle. The campaign engines use it to batch cycle-sorted injections
// that share a restore point.
func (l *Ladder) RungCycleFor(cycle uint64) uint64 { return l.rungFor(cycle).Cycle }

// rungFor returns the highest rung at or below cycle; rung 0 sits at
// cycle zero, so the result is always defined.
func (l *Ladder) rungFor(cycle uint64) *Checkpoint {
	i := sort.Search(len(l.rungs), func(i int) bool { return l.rungs[i].Cycle > cycle }) - 1
	return l.rungs[i]
}

// microFingerprint folds the machine's non-DRAM live state into h: core
// micro-state, cache and TLB live content, and device state. Only
// provably dead state (content of invalid lines, free registers, expired
// deadlines — see the HashLive/HashMicro contracts) is excluded.
func (m *Machine) microFingerprint(h *mem.Hasher) {
	m.core.HashMicro(h)
	m.Mem.L1I.HashLive(h)
	m.Mem.L1D.HashLive(h)
	m.Mem.L2.HashLive(h)
	m.Mem.ITLB.HashLive(h)
	m.Mem.DTLB.HashLive(h)
	h.Word32(m.Timer.period)
	h.Word(m.Timer.count)
	h.Bool(m.Timer.pending)
	h.Bool(m.SysCtl.halted)
	h.Word32(m.SysCtl.exitCode)
	h.Word(m.SysCtl.beats)
	h.Word(m.SysCtl.appAlive)
	h.Bytes(m.UART.out)
}

// fingerprint folds the machine's complete live state into h: the
// non-DRAM micro fingerprint followed by the DRAM image as a fold of its
// per-page fingerprints (so capture folds the fingerprints its frozen
// image memoises instead of hashing memory again). Everything
// that can influence future execution or the run Result is covered, so a
// fingerprint match implies the remaining execution is identical to the
// golden run's.
func (m *Machine) fingerprint(h *mem.Hasher) {
	m.microFingerprint(h)
	m.DRAM.FoldHashes(h)
}

// Fingerprint returns the machine's current live-state fingerprint
// (test and diagnostic surface).
func (m *Machine) Fingerprint() uint64 {
	h := mem.NewHasher()
	m.fingerprint(h)
	return h.Sum()
}

// microFPSum returns just the non-DRAM fingerprint stage.
func (m *Machine) microFPSum() uint64 {
	h := mem.NewHasher()
	m.microFingerprint(h)
	return h.Sum()
}

// captureCheckpoint captures a ladder rung: the full machine state and
// its fingerprint. prev is the previously captured rung (nil for rung 0).
func (m *Machine) captureCheckpoint(lastBeatAbs uint64, prev *Checkpoint) *Checkpoint {
	// One hasher pass yields both stages: microFP is the running sum
	// before the DRAM page fingerprints are folded in, Fingerprint after.
	h := mem.NewHasher()
	m.microFingerprint(h)
	c := &Checkpoint{Cycle: m.core.Cycles(), microFP: h.Sum(), lastBeatAbs: lastBeatAbs}
	var prevState *machineState
	if prev != nil {
		prevState = &prev.machineState
	}
	c.machineState = m.saveState(prevState)
	c.img.FoldHashes(h)
	c.Fingerprint = h.Sum()
	return c
}

// saveState captures the full machine state. DRAM is frozen in place:
// only pages written since the previous capture are new objects (and
// hashed), the rest are shared with it. Cache sets unchanged since prev
// (nil: a capture of its own) are interned — byte-verified — instead of
// copied.
func (m *Machine) saveState(prev *machineState) machineState {
	var prevL1I, prevL1D, prevL2 *mem.CacheState
	if prev != nil {
		prevL1I, prevL1D, prevL2 = prev.l1i, prev.l1d, prev.l2
	}
	return machineState{
		img:   m.DRAM.Freeze(),
		micro: m.core.SaveMicro(),
		l1i:   m.Mem.L1I.SaveStateAgainst(prevL1I),
		l1d:   m.Mem.L1D.SaveStateAgainst(prevL1D),
		l2:    m.Mem.L2.SaveStateAgainst(prevL2),
		itlb:  m.Mem.ITLB.SaveState(),
		dtlb:  m.Mem.DTLB.SaveState(),
		timer: m.Timer.save(),
		sysc:  m.SysCtl.save(),
		uart:  m.UART.Output(),
	}
}

// RestoreCheckpoint brings the machine to the exact state of a ladder
// rung.
func (m *Machine) RestoreCheckpoint(c *Checkpoint) { m.restoreState(&c.machineState) }

// restoreState brings the machine to a captured state; DRAM restores by
// sharing the capture's pages. The core micro-state is loaded first (it
// sets the TTBR, which may invalidate TLBs on change) and the TLB content
// after.
func (m *Machine) restoreState(s *machineState) {
	m.DRAM.Restore(s.img, 0)
	m.core.LoadMicro(s.micro)
	m.Mem.L1I.RestoreState(s.l1i)
	m.Mem.L1D.RestoreState(s.l1d)
	m.Mem.L2.RestoreState(s.l2)
	m.Mem.ITLB.RestoreState(s.itlb)
	m.Mem.DTLB.RestoreState(s.dtlb)
	m.Timer.restore(s.timer)
	m.SysCtl.restore(s.sysc)
	m.UART.Restore(s.uart)
}

// ReplayGolden performs the instrumented golden replay: restore the
// post-boot snapshot (warm or cold exactly as injection runs will), run
// fault-free to completion, and record what the campaign engines ask for
// in one pass. every > 0 captures the checkpoint ladder — a rung at cycle
// zero and at every rung boundary reached (at most max mid-run rungs;
// rung 0 is always kept); every == 0 captures none. live attaches liveness recorders to every cache and TLB. Capture
// only reads machine state and emits no recorder events, so one replay
// yields exactly what two separate ones would, and Final (the same Result
// in both products) is what a plain golden run produces. The machine is
// left at the end state of the run.
func (m *Machine) ReplayGolden(base *Snapshot, warm bool, every uint64, max int, live bool, budget uint64) (*Ladder, *LivenessLog) {
	m.RestoreSnapshot(base, warm)
	var (
		l    *Ladder
		log  *LivenessLog
		next = never
	)
	if every > 0 {
		l = &Ladder{base: base, warm: warm, every: every}
		l.rungs = append(l.rungs, m.captureCheckpoint(0, nil))
		next = every
	}
	if live {
		log = m.attachLiveness(warm)
		defer m.detachLiveness()
	}
	res, _ := m.loop(base.counters(), budget, next, func(cycle, lastBeat uint64) (uint64, bool) {
		// The atomic model can step several cycles at once and skip a
		// boundary; the rung lands on the first boundary actually reached,
		// and faulty runs compare only on exact hits.
		l.rungs = append(l.rungs, m.captureCheckpoint(lastBeat, l.rungs[len(l.rungs)-1]))
		if max > 0 && len(l.rungs) > max {
			return never, false
		}
		return (cycle/every + 1) * every, false
	})
	if l != nil {
		l.Final = res
	}
	if log != nil {
		log.Final = res
	}
	return l, log
}

// dramConverged reports whether the machine's DRAM matches rung r: pages
// shared with the rung are equal by identity, the rest compare by their
// memoised or freshly computed fingerprints. The exact comparison of
// every byte is the LadderCrossCheck cross-check.
func (m *Machine) dramConverged(r *Checkpoint) bool {
	inc := m.DRAM.ConvergedPages(r.img)
	if m.LadderCrossCheck {
		full := m.DRAM.EqualPages(r.img)
		if inc != full {
			panic(fmt.Sprintf(
				"soc: page-level DRAM convergence (%v) disagrees with full comparison (%v) at rung cycle %d",
				inc, full, r.Cycle))
		}
	}
	return inc
}

// RunLadderInjection runs one injection experiment through the ladder:
// restore the nearest rung at or below injectAt, run with the injection,
// and after the fault compare fingerprints at every rung crossing — on a
// match the rest of the run is deterministic and identical to golden, so
// the golden Final is returned immediately. The Result is bit-identical
// to RestoreSnapshot + RunWithInjection with the same arguments.
func (m *Machine) RunLadderInjection(l *Ladder, watchdog, injectAt uint64, inject func()) (Result, LadderStats) {
	rung := l.rungFor(injectAt)
	m.RestoreCheckpoint(rung)
	stats := LadderStats{FastForwarded: rung.Cycle}
	base := l.base.counters()
	base.lastBeat = rung.lastBeatAbs
	injected := false
	k := sort.Search(len(l.rungs), func(i int) bool { return l.rungs[i].Cycle > injectAt })
	res, stopped := m.loop(base, watchdog, injectAt, func(cycle, lastBeat uint64) (uint64, bool) {
		if !injected {
			inject()
			injected = true
		}
		for ; k < len(l.rungs) && l.rungs[k].Cycle <= cycle; k++ {
			r := l.rungs[k]
			if r.Cycle < cycle {
				continue // diverged timing skipped a boundary; no comparison
			}
			// Staged convergence check: the cheap non-DRAM fingerprint
			// first (a diverged run almost always differs there), then the
			// DRAM page comparison.
			if lastBeat == r.lastBeatAbs && m.microFPSum() == r.microFP && m.dramConverged(r) {
				stats.EarlyExit = true
				stats.TailSaved = l.Final.Cycles - cycle
				stats.ConvergedAt = cycle
				return never, true
			}
			if stats.DivergedAt == 0 {
				stats.DivergedAt = cycle
			}
		}
		if k < len(l.rungs) {
			return l.rungs[k].Cycle, false
		}
		return never, false
	})
	if stopped {
		return l.Final, stats
	}
	if !injected {
		// The run ended before the injection time; apply it so component
		// state still carries it.
		inject()
	}
	return res, stats
}

// SteadyState is the state a fault-free warm golden run leaves the
// machine in, with that run's Result: the live board between executions,
// where the beam simulator's strike chains start and every post-crash
// reboot returns to. Nothing compares against it, so it carries no
// fingerprint. Immutable after capture; safe to restore concurrently
// into sibling machines.
type SteadyState struct {
	// Final is the Result of the warm golden run.
	Final Result

	end machineState
}

// CaptureSteadyState restores the post-boot snapshot warm, runs
// fault-free to completion within budget, and captures the state the run
// leaves behind. The machine is left in that state.
func (m *Machine) CaptureSteadyState(base *Snapshot, budget uint64) *SteadyState {
	m.RestoreSnapshot(base, true)
	res := m.Run(budget)
	return &SteadyState{Final: res, end: m.saveState(nil)}
}

// FastForwardGolden replaces a fault-free warm full run: it restores the
// machine to the exact steady state and returns the golden Result. The
// beam simulator uses it for the steady-state and reboot runs of its
// strike chains, whose live-board semantics allow no other reordering.
func (m *Machine) FastForwardGolden(s *SteadyState) Result {
	m.restoreState(&s.end)
	return s.Final
}
