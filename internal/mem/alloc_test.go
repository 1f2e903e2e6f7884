package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// allocBytes returns the bytes fn allocates, as the least of three
// calls: the runtime itself allocates now and then, which only adds.
func allocBytes(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		before := totalAlloc()
		fn()
		if n := totalAlloc() - before; n < least {
			least = n
		}
	}
	return least
}

// l2Cfg is the platform's L2 geometry: 2,048 sets of 8 ways.
func l2Cfg() CacheConfig {
	return CacheConfig{Name: "l2", SizeBytes: 512 << 10, LineBytes: 32, Ways: 8, HitCycles: 8}
}

// TestLivenessEventStorage pins the event stream's storage: a recording
// allocates event blocks and nothing else while it only appends events,
// EventBytes (the armsefi_liveness_event_bytes gauge) equals the bytes
// those blocks take on the heap, and the allocated event capacity is at
// most the events used plus one block per touched way. Streams grown by
// slice doubling fail both: every growth copies, and a way's capacity
// runs up to twice its events.
func TestLivenessEventStorage(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	rng := rand.New(rand.NewSource(3))
	// Phase 1: fills, evictions and writebacks over four times the
	// cache's footprint touch every way and create its generations.
	for i := 0; i < 4000; i++ {
		now++
		addr := uint32(rng.Intn(4<<10)) &^ 3
		if rng.Intn(3) == 0 {
			c.Write(addr, 4, rng.Uint32())
		} else {
			c.Read(addr, 4)
		}
	}
	var resident []uint32
	c.VisitValidLines(func(addr uint32, _ bool) { resident = append(resident, addr) })

	// Phase 2: hits on resident lines only, one note per stamp, so no
	// record, generation or coalescing — the recorder's only allocations
	// are event blocks. Each of the three rounds appends the same number
	// of events to every way, so each allocates the same blocks.
	round := func() {
		for i := 0; i < 31*8*len(resident); i++ {
			now++
			c.Read(resident[i%len(resident)]+uint32(rng.Intn(8))*4, 4)
		}
	}
	beforeBytes := r.EventBytes()
	allocated := allocBytes(round)
	grown := (r.EventBytes() - beforeBytes) / 3
	if grown <= 0 || allocated != uint64(grown) {
		t.Fatalf("appending events allocated %d bytes per round, EventBytes grew by %d", allocated, grown)
	}
	if r.Overflowed() != 0 {
		t.Fatalf("%d ways overflowed; the bound below needs whole streams", r.Overflowed())
	}

	used, touched := 0, 0
	for i := range r.recs {
		if n := len(wayEvents(&r.recs[i])); n > 0 {
			used += n
			touched++
		}
	}
	capacity := r.EventBytes() / int(unsafe.Sizeof(liveBlock{})) * liveBlockLen
	if touched != len(r.idx) || capacity > used+touched*liveBlockLen {
		t.Fatalf("%d event slots allocated for %d events in %d of %d ways, over the bound %d",
			capacity, used, touched, len(r.idx), used+touched*liveBlockLen)
	}
}

// TestSaveStateAgainstIdenticalOwnsNothing: a state saved against an
// identical cache appends nothing to the store and allocates only its
// per-set index — for the L2 geometry 8 KiB, where a slice header per
// set would take 48 KiB.
func TestSaveStateAgainstIdenticalOwnsNothing(t *testing.T) {
	c := NewCache(l2Cfg(), NewBus(NewDRAM(1<<20)))
	for a := uint32(0); a < 256<<10; a += 4 {
		c.Write(a, 4, a*2654435761)
	}
	prev := c.SaveState()
	blocks := len(prev.store.meta) + len(prev.store.data)

	var st *CacheState
	allocated := allocBytes(func() { st = c.SaveStateAgainst(prev) })

	if st.MemoryBytes() != 0 || st.SharedBytes() != prev.MemoryBytes() {
		t.Fatalf("owned %d shared %d, want 0 and %d", st.MemoryBytes(), st.SharedBytes(), prev.MemoryBytes())
	}
	if got := len(st.store.meta) + len(st.store.data); got != blocks {
		t.Fatalf("store grew from %d to %d blocks", blocks, got)
	}
	if limit := uint64(st.IndexBytes()) + 256; allocated > limit {
		t.Fatalf("save allocated %d bytes, want at most the %d-byte index plus the state itself",
			allocated, st.IndexBytes())
	}
	if !st.Equal(prev) {
		t.Fatal("interned state differs from its identical predecessor")
	}
}

// TestCacheStateAccountingDirectCount checks CacheState.MemoryBytes and
// SharedBytes along a chain of saves against direct counts: the sets
// whose metadata or live bytes differ from the previous save, found by
// comparing the test's own copies of the cache arrays, and the bytes of
// the blocks each save appended to the store. Every state refers to one
// entry per set and one data block per live set (a set with a valid
// way), owned or shared.
func TestCacheStateAccountingDirectCount(t *testing.T) {
	c := NewCache(smallCacheCfg("c"), NewBus(NewDRAM(1<<16)))
	rng := rand.New(rand.NewSource(5))
	ways, setData := c.cfg.Ways, c.cfg.Ways*int(c.cfg.LineBytes)
	entryBytes := ways*int(unsafe.Sizeof(lineMeta{})) + int(unsafe.Sizeof(uint32(0)))
	live := func(meta []lineMeta, s int) bool {
		for _, ln := range meta[s*ways : (s+1)*ways] {
			if ln.valid {
				return true
			}
		}
		return false
	}

	var prev *CacheState
	var prevMeta []lineMeta
	var prevData []byte
	for round := 0; round < 40; round++ {
		// Reads move LRU stamps only; writes and refills change bytes;
		// invalidations leave sets with no valid way.
		for i := rng.Intn(12); i > 0; i-- {
			addr := uint32(rng.Intn(1<<12)) &^ 3
			switch rng.Intn(5) {
			case 0, 1:
				c.Write(addr, 4, rng.Uint32())
			case 2:
				c.InvalidateRange(addr&^31, 64)
			default:
				c.Read(addr, 4)
			}
		}
		nMeta, nData, liveSets := 0, 0, 0
		for s := 0; s < int(c.sets); s++ {
			if !live(c.meta, s) {
				if prev == nil || !metaEqual(c.meta[s*ways:(s+1)*ways], prevMeta[s*ways:(s+1)*ways]) {
					nMeta++
				}
				continue
			}
			liveSets++
			metaSame, dataSame := false, false
			if prev != nil {
				metaSame = metaEqual(c.meta[s*ways:(s+1)*ways], prevMeta[s*ways:(s+1)*ways])
				dataSame = live(prevMeta, s) &&
					bytes.Equal(c.data[s*setData:(s+1)*setData], prevData[s*setData:(s+1)*setData])
			}
			if !metaSame || !dataSame {
				nMeta++
			}
			if !dataSame {
				nData++
			}
		}
		full := int(c.sets)*entryBytes + liveSets*setData
		var store *cacheStore
		metaBlocks, dataBlocks := 0, 0
		if prev != nil {
			store = prev.store
			metaBlocks, dataBlocks = len(store.meta), len(store.data)
		}
		st := c.SaveStateAgainst(prev)
		store = st.store
		appended := 0
		for _, m := range store.meta[metaBlocks:] {
			appended += cap(m) * int(unsafe.Sizeof(lineMeta{}))
		}
		for _, d := range store.dataOf[metaBlocks:] {
			appended += cap(d) * int(unsafe.Sizeof(uint32(0)))
		}
		for _, d := range store.data[dataBlocks:] {
			appended += cap(d)
		}

		if want := nMeta*entryBytes + nData*setData; st.MemoryBytes() != want || appended != want {
			t.Fatalf("round %d: %d sets changed, %d of them bytes: MemoryBytes %d, appended %d, want %d",
				round, nMeta, nData, st.MemoryBytes(), appended, want)
		}
		if st.MemoryBytes()+st.SharedBytes() != full {
			t.Fatalf("round %d: owned %d + shared %d != the content of %d sets, %d of them live: %d",
				round, st.MemoryBytes(), st.SharedBytes(), c.sets, liveSets, full)
		}
		if st.IndexBytes() != int(c.sets)*4 {
			t.Fatalf("round %d: index %d bytes for %d sets", round, st.IndexBytes(), c.sets)
		}
		prev = st
		prevMeta = append(prevMeta[:0], c.meta...)
		prevData = append(prevData[:0], c.data...)
	}
}
