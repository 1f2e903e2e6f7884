package soc

import (
	"runtime"
	"testing"

	"armsefi/internal/mem"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLadderMemoryAccountingDirectCount checks the ladder's memory
// accounting against direct counts. MemoryBytes must match the heap the
// ladder alone keeps alive — measured by dropping the ladder, with the
// machine and snapshot still held, and collecting — to within 2%. For
// SharedBytes, every rung's cache state refers to one full cache's
// content, so the cache part of what a copy per rung would have
// duplicated is that full size per rung minus what the states own; the
// rest is DRAM pages referenced by more than one image.
func TestLadderMemoryAccountingDirectCount(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, warm := range []bool{false, true} {
			m := bootMachine(t, model, ladderAppSource)
			snap := m.SaveSnapshot()
			l, _ := m.ReplayGolden(snap, warm, 2_000, 0, false, ladderBudget)
			with := liveHeap()
			memBytes, sharedBytes := l.MemoryBytes(), l.SharedBytes()

			// Rung 0 is saved against nothing, so it owns a full copy.
			states := func(c *Checkpoint) []*mem.CacheState { return []*mem.CacheState{c.l1i, c.l1d, c.l2} }
			cacheShared, copyPerRung := 0, 0
			for ci, full := range states(l.rungs[0]) {
				for _, c := range l.checkpoints() {
					cs := states(c)[ci]
					cacheShared += cs.SharedBytes()
					copyPerRung += full.MemoryBytes() - cs.MemoryBytes()
				}
			}
			_, dramShared := mem.ImageBytes(l.base.dram, l.images())
			if cacheShared != copyPerRung || sharedBytes != dramShared+cacheShared {
				t.Errorf("%v warm=%v: SharedBytes %d (cache %d), direct count: cache %d + DRAM %d",
					model, warm, sharedBytes, cacheShared, copyPerRung, dramShared)
			}

			l = nil
			retained := float64(with) - float64(liveHeap())
			runtime.KeepAlive(m)
			runtime.KeepAlive(snap)
			if r := float64(memBytes) / retained; r < 0.98 || r > 1.02 {
				t.Errorf("%v warm=%v: MemoryBytes %d, the ladder keeps %.0f heap bytes alive (ratio %.3f)",
					model, warm, memBytes, retained, r)
			}
		}
	}
}
