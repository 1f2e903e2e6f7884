package soc

import (
	"bytes"
	"fmt"
	"reflect"

	"armsefi/internal/mem"
)

// Checkpoints exposes every captured checkpoint (rungs, then the end
// state) to the external test package.
func (l *Ladder) Checkpoints() []*Checkpoint { return l.checkpoints() }

// CacheStates returns the checkpoint's saved L1I, L1D and L2 states.
func (c *Checkpoint) CacheStates() [3]*mem.CacheState { return [3]*mem.CacheState{c.l1i, c.l1d, c.l2} }

// LadderDiff reports the first difference between two ladders' captured
// state, or nil when they are equal: shape, Final, and per checkpoint the
// cycle, fingerprints, page image, cache, TLB and device state. The core
// micro-state is compared through the fingerprint only: its uop sequence
// counter legitimately depends on what the machine ran before the replay.
func LadderDiff(a, b *Ladder) error {
	if a.warm != b.warm || a.every != b.every || len(a.rungs) != len(b.rungs) {
		return fmt.Errorf("shape: warm %v/%v every %d/%d rungs %d/%d",
			a.warm, b.warm, a.every, b.every, len(a.rungs), len(b.rungs))
	}
	if !reflect.DeepEqual(a.Final, b.Final) {
		return fmt.Errorf("Final %+v != %+v", a.Final, b.Final)
	}
	bc := b.checkpoints()
	for i, x := range a.checkpoints() {
		y := bc[i]
		switch {
		case x.Cycle != y.Cycle || x.Fingerprint != y.Fingerprint || x.microFP != y.microFP ||
			x.lastBeatAbs != y.lastBeatAbs:
			return fmt.Errorf("checkpoint %d: cycle %d/%d fingerprint %#x/%#x", i, x.Cycle, y.Cycle, x.Fingerprint, y.Fingerprint)
		case !equalImages(x.img, y.img):
			return fmt.Errorf("checkpoint %d (cycle %d): page image differs", i, x.Cycle)
		case !x.l1i.Equal(y.l1i) || !x.l1d.Equal(y.l1d) || !x.l2.Equal(y.l2):
			return fmt.Errorf("checkpoint %d (cycle %d): cache state differs", i, x.Cycle)
		case !reflect.DeepEqual(x.itlb, y.itlb) || !reflect.DeepEqual(x.dtlb, y.dtlb):
			return fmt.Errorf("checkpoint %d (cycle %d): TLB state differs", i, x.Cycle)
		case x.timer != y.timer || x.sysc != y.sysc || !bytes.Equal(x.uart, y.uart):
			return fmt.Errorf("checkpoint %d (cycle %d): device state differs", i, x.Cycle)
		}
	}
	return nil
}

// equalImages compares two DRAM images byte for byte by restoring one into
// a scratch DRAM.
func equalImages(a, b *mem.Image) bool {
	d := mem.NewDRAM(DRAMBytes)
	d.Restore(a, 0)
	return d.EqualPages(b)
}
