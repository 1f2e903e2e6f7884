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
// SharedBytes, every rung's cache state refers to the content a save of
// its own would copy — counted by restoring the rung into a second
// machine and saving its caches there — so the cache part of what a
// copy per rung would have duplicated is that size per rung minus what
// the states own; the rest is DRAM pages referenced by more than one
// image.
func TestLadderMemoryAccountingDirectCount(t *testing.T) {
	for _, model := range []ModelKind{ModelAtomic, ModelDetailed} {
		for _, warm := range []bool{false, true} {
			m := bootMachine(t, model, ladderAppSource)
			snap := m.SaveSnapshot()
			l, _ := m.ReplayGolden(snap, warm, 2_000, 0, false, ladderBudget)
			with := liveHeap()
			memBytes, sharedBytes := l.MemoryBytes(), l.SharedBytes()

			// A state saved against nothing owns a full copy.
			states := func(c *Checkpoint) []*mem.CacheState { return []*mem.CacheState{c.l1i, c.l1d, c.l2} }
			own := bootMachine(t, model, ladderAppSource)
			cacheShared, copyPerRung := 0, 0
			for _, c := range l.rungs {
				own.RestoreCheckpoint(c)
				copies := []*mem.CacheState{own.Mem.L1I.SaveState(), own.Mem.L1D.SaveState(), own.Mem.L2.SaveState()}
				for ci, cs := range states(c) {
					cacheShared += cs.SharedBytes()
					copyPerRung += copies[ci].MemoryBytes() - cs.MemoryBytes()
				}
			}
			own = nil
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
