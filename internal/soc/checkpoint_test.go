package soc

import (
	"bytes"
	"reflect"
	"testing"

	"armsefi/internal/mem"
)

// A workload long enough to cross several small rung boundaries: a loop
// that touches memory and prints a digest, with the usual clean exit.
const ladderAppSource = `
.text
_start:
	ldr sp, =0x3F0000
	ldr r4, =buf
	mov r8, #250
outer:
	mov r5, #0
	mov r6, #0
loop:
	ldr r1, [r4, r5]
	add r6, r6, r1
	str r6, [r4, r5]
	add r5, #4
	cmp r5, #128
	blt loop
	subs r8, r8, #1
	bne outer
	ldr r0, =msg
	mov r1, #4
	mov r7, #2
	svc #0
	mov r0, #0
	mov r7, #1
	svc #0
.data
msg: .word 0x0a6b6f21
buf: .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
buf2: .word 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32
`

const ladderBudget = 5_000_000

func captureLadder(t *testing.T, model ModelKind, warm bool, every uint64) (*Machine, *Snapshot, *Ladder) {
	t.Helper()
	m := bootMachine(t, model, ladderAppSource)
	snap := m.SaveSnapshot()
	l, _ := m.ReplayGolden(snap, warm, every, 0, false, ladderBudget)
	if !l.Final.CleanExit() {
		t.Fatalf("%v warm=%v: capture run not clean: %v code=%#x",
			model, warm, l.Final.Outcome, l.Final.ExitCode)
	}
	return m, snap, l
}

// TestCaptureLadderFinalMatchesPlainRun pins that the instrumented capture
// replay produces exactly the Result of an uninstrumented golden run.
func TestCaptureLadderFinalMatchesPlainRun(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, warm := range []bool{false, true} {
			m, snap, l := captureLadder(t, model, warm, 2_000)
			if l.Rungs() < 3 {
				t.Fatalf("%v warm=%v: only %d rungs (golden %d cycles)",
					model, warm, l.Rungs(), l.Final.Cycles)
			}
			m.RestoreSnapshot(snap, warm)
			plain := m.Run(ladderBudget)
			if !reflect.DeepEqual(plain, l.Final) {
				t.Errorf("%v warm=%v: capture Final %+v != plain run %+v",
					model, warm, l.Final, plain)
			}
		}
	}
}

// TestRestoreCheckpointBitIdenticalToReplay verifies, for every rung, that
// restoring the rung reproduces exactly the state (fingerprint and
// architectural state) a full replay reaches at the rung cycle, and that a
// run continued from the rung completes the golden run bit-for-bit.
func TestRestoreCheckpointBitIdenticalToReplay(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		m, snap, l := captureLadder(t, model, false, 2_000)
		for i, c := range l.rungs {
			// Replay from the snapshot, sampling the fingerprint at the rung
			// cycle via the injection hook (it runs at the top of the step
			// loop, the exact point captureCheckpoint runs at).
			var replayFP uint64
			m.RestoreSnapshot(snap, false)
			m.RunWithInjection(ladderBudget, c.Cycle, func() { replayFP = m.Fingerprint() })
			if replayFP != c.Fingerprint {
				t.Errorf("%v rung %d (cycle %d): replay fingerprint %#x != captured %#x",
					model, i, c.Cycle, replayFP, c.Fingerprint)
			}

			// Restore the rung directly: same fingerprint, same arch state,
			// and the continued run must complete the golden tail exactly.
			m.RestoreCheckpoint(c)
			if got := m.Fingerprint(); got != c.Fingerprint {
				t.Errorf("%v rung %d: restored fingerprint %#x != captured %#x",
					model, i, got, c.Fingerprint)
			}
			if m.Core().Cycles() != c.Cycle {
				t.Errorf("%v rung %d: restored cycle %d != %d", model, i, m.Core().Cycles(), c.Cycle)
			}
			cont := m.Run(ladderBudget)
			if cont.Cycles != l.Final.Cycles-c.Cycle {
				t.Errorf("%v rung %d: continued run %d cycles, want %d",
					model, i, cont.Cycles, l.Final.Cycles-c.Cycle)
			}
			prefix := c.uart[len(snap.uart):]
			full := append(append([]byte(nil), prefix...), cont.Output...)
			if !bytes.Equal(full, l.Final.Output) {
				t.Errorf("%v rung %d: prefix+tail output %q != golden %q",
					model, i, full, l.Final.Output)
			}
			if !cont.CleanExit() {
				t.Errorf("%v rung %d: continued run not clean: %v", model, i, cont.Outcome)
			}
		}
	}
}

// TestRunLadderInjectionMatchesFullRun pins the bit-identity contract: for
// a spread of injection cycles and a real bit flip, the ladder path yields
// exactly the Result of restore-from-snapshot plus full replay.
func TestRunLadderInjectionMatchesFullRun(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, warm := range []bool{false, true} {
			m, snap, l := captureLadder(t, model, warm, 2_000)
			watchdog := 2*l.Final.Cycles + 1_000_000
			for _, frac := range []uint64{0, 3, 7, 12, 19, 31, 47, 63} {
				at := l.Final.Cycles * frac / 64
				bit := (frac*977 + 13) % m.Core().RegFileBits()
				m.RestoreSnapshot(snap, warm)
				want := m.RunWithInjection(watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
				got, _ := m.RunLadderInjection(l, watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v warm=%v at=%d bit=%d: ladder %+v != full %+v",
						model, warm, at, bit, got, want)
				}
			}
		}
	}
}

// TestRunLadderInjectionEarlyExit uses a self-cancelling injection (flip a
// bit twice) so the machine state provably rejoins the golden timeline: the
// first rung crossing after the injection must detect convergence.
func TestRunLadderInjectionEarlyExit(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		m, _, l := captureLadder(t, model, false, 2_000)
		watchdog := 2*l.Final.Cycles + 1_000_000
		at := l.Final.Cycles / 3
		inject := func() {
			m.Core().FlipRegFileBit(40)
			m.Core().FlipRegFileBit(40)
		}
		res, stats := m.RunLadderInjection(l, watchdog, at, inject)
		if !stats.EarlyExit {
			t.Fatalf("%v: no early exit for a state-neutral injection at cycle %d", model, at)
		}
		if stats.TailSaved == 0 {
			t.Errorf("%v: early exit saved no cycles", model)
		}
		if !reflect.DeepEqual(res, l.Final) {
			t.Errorf("%v: early-exit result %+v != golden %+v", model, res, l.Final)
		}
	}
}

// TestFastForwardGolden pins the beam fast-forward: restoring the end state
// returns the golden Result, and the machine is left exactly as a full
// golden run leaves it (halted, with identical fingerprint).
func TestFastForwardGolden(t *testing.T) {
	m, snap, l := captureLadder(t, ModelAtomic, true, 2_000)
	m.RestoreSnapshot(snap, true)
	plain := m.Run(ladderBudget)
	endFP := m.Fingerprint()
	res := m.FastForwardGolden(l)
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("fast-forward result %+v != plain run %+v", res, plain)
	}
	if got := m.Fingerprint(); got != endFP {
		t.Errorf("fast-forwarded end state fingerprint %#x != full-run %#x", got, endFP)
	}
	if !m.SysCtl.Halted() {
		t.Error("fast-forwarded machine not halted")
	}
}

// TestCaptureLadderMaxCheckpoints bounds the ladder size.
func TestCaptureLadderMaxCheckpoints(t *testing.T) {
	m := bootMachine(t, ModelAtomic, ladderAppSource)
	snap := m.SaveSnapshot()
	l, _ := m.ReplayGolden(snap, false, 1_000, 4, false, ladderBudget)
	if l.Rungs() > 5 { // rung 0 plus at most max mid-run rungs
		t.Errorf("ladder holds %d rungs, max 4 requested", l.Rungs())
	}
	if l.MemoryBytes() <= 0 {
		t.Error("MemoryBytes reported nothing retained")
	}
}

// TestLadderInternsUntouchedCacheSets pins rung cache-set interning and
// its accounting: when no access touches the L2 between two rungs, the
// later rung shares every L2 set with the earlier one and owns none, the
// ladder reports those bytes as shared, and MemoryBytes no longer counts
// a full L2 copy per rung.
func TestLadderInternsUntouchedCacheSets(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		_, _, l := captureLadder(t, model, false, 2_000)
		full := l.rungs[0].l2.MemoryBytes()
		if full == 0 || l.rungs[0].l2.SharedBytes() != 0 {
			t.Fatalf("%v: rung 0 must own its whole L2 (owned %d, shared %d)",
				model, full, l.rungs[0].l2.SharedBytes())
		}
		untouched := 0
		for i := 1; i < len(l.rungs); i++ {
			prev, c := l.rungs[i-1].l2, l.rungs[i].l2
			if !c.Equal(prev) {
				continue
			}
			untouched++
			if c.MemoryBytes() != 0 || c.SharedBytes() != full {
				t.Errorf("%v rung %d: untouched L2 owns %d and shares %d bytes, want 0 and %d",
					model, i, c.MemoryBytes(), c.SharedBytes(), full)
			}
		}
		if untouched == 0 {
			t.Fatalf("%v: no rung pair with an untouched L2 in %d rungs", model, len(l.rungs))
		}
		if l.SharedBytes() < untouched*full {
			t.Errorf("%v: ladder shares %d bytes, want at least %d", model, l.SharedBytes(), untouched*full)
		}
		if l.MemoryBytes() >= len(l.rungs)*full {
			t.Errorf("%v: MemoryBytes %d still counts an L2 copy per rung (%d rungs x %d)",
				model, l.MemoryBytes(), len(l.rungs), full)
		}
	}
}

// TestLadderDebugCrossCheckAgrees runs ladder injections with the debug
// cross-check enabled: every page-level convergence verdict is compared
// against the exact full-image comparison and panics on disagreement, so
// simply completing the spread — with results still bit-identical to full
// replays — proves the fast path agrees with the exact one at every rung
// crossing.
func TestLadderDebugCrossCheckAgrees(t *testing.T) {
	LadderDebugCompare.Store(true)
	t.Cleanup(func() { LadderDebugCompare.Store(false) })
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		m, snap, l := captureLadder(t, model, false, 2_000)
		watchdog := 2*l.Final.Cycles + 1_000_000
		for _, frac := range []uint64{0, 9, 21, 42, 63} {
			at := l.Final.Cycles * frac / 64
			bit := (frac*977 + 13) % m.Core().RegFileBits()
			m.RestoreSnapshot(snap, false)
			want := m.RunWithInjection(watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
			got, _ := m.RunLadderInjection(l, watchdog, at, func() { m.Core().FlipRegFileBit(bit) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v at=%d bit=%d: debug-checked ladder %+v != full %+v",
					model, at, bit, got, want)
			}
		}
	}
}

// TestLadderDebugCrossCheckPanicsOnDisagreement seeds a disagreement: the
// injection writes a page-fingerprint collision into a page the workload
// never touches — content that differs from every rung's yet hashes
// equal — so the page-level verdict is "converged" while the exact
// comparison sees different bytes, and the debug cross-check must panic.
func TestLadderDebugCrossCheckPanicsOnDisagreement(t *testing.T) {
	LadderDebugCompare.Store(true)
	t.Cleanup(func() { LadderDebugCompare.Store(false) })
	m, _, l := captureLadder(t, ModelAtomic, false, 2_000)
	watchdog := 2*l.Final.Cycles + 1_000_000
	at := l.Final.Cycles / 3
	top := DRAMBytes - mem.PageBytes // never written: all zero
	// The page hasher's first lane folds the page's words 0, 32, 64, ...
	// as h = (h ^ w) * prime, starting from the state after the length
	// word. Setting word 0 to 1 and word 32 to the difference of the two
	// products leaves the lane, and so the fingerprint, unchanged.
	const fnvPrime = 1099511628211
	h := mem.NewHasher()
	h.Word(mem.PageBytes)
	lane := h.Sum()
	w32 := (lane * fnvPrime) ^ ((lane ^ 1) * fnvPrime)
	defer func() {
		if recover() == nil {
			t.Fatal("a page-fingerprint collision did not trip the debug cross-check")
		}
	}()
	m.RunLadderInjection(l, watchdog, at, func() {
		m.Core().FlipRegFileBit(40)
		m.Core().FlipRegFileBit(40)
		m.DRAM.Poke(top, 1)
		m.DRAM.Poke(top+32, uint32(w32))
		m.DRAM.Poke(top+36, uint32(w32>>32))
	})
}
