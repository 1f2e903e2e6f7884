package soc

import (
	"testing"

	"armsefi/internal/asm"
)

func benchLadderMachine(b *testing.B) (*Machine, *Ladder) {
	b.Helper()
	m, err := NewMachine(PresetZynq(), ModelAtomic)
	if err != nil {
		b.Fatal(err)
	}
	p, err := asm.Assemble("app.s", ladderAppSource, UserAsmConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadApp(p); err != nil {
		b.Fatal(err)
	}
	if err := m.Boot(5_000_000); err != nil {
		b.Fatal(err)
	}
	snap := m.SaveSnapshot()
	l, _ := m.ReplayGolden(snap, false, 2_000, 0, false, ladderBudget)
	if !l.Final.CleanExit() {
		b.Fatalf("capture run not clean: %v", l.Final.Outcome)
	}
	return m, l
}

// BenchmarkRungConvergence measures the cost an injection run pays at
// every rung crossing: the staged golden-convergence check (micro
// fingerprint, then DRAM). The incremental arm is the production path —
// dirty-page tracking is active after a checkpoint restore, so only
// pages written since the restore are rehashed; the full arm is the
// exact whole-image comparison the debug cross-check falls back to.
func BenchmarkRungConvergence(b *testing.B) {
	m, l := benchLadderMachine(b)
	r := l.rungs[len(l.rungs)/2]
	m.RestoreCheckpoint(l, r) // activates dirty-page tracking against l.base
	if !m.DRAM.Tracking(l.base.dram) {
		b.Fatal("tracking not active after checkpoint restore")
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m.microFPSum() != r.microFP || !m.dramConverged(l, r) {
				b.Fatal("restored rung must converge to itself")
			}
		}
	})
	b.Run("full-image", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m.microFPSum() != r.microFP || !m.DRAM.EqualBasePages(l.base.dram, r.img) {
				b.Fatal("restored rung must converge to itself")
			}
		}
	})
}
