package mem

import (
	"bytes"
	"fmt"
	"unsafe"
)

// CacheState is a cache's content captured by Machine snapshots (the
// gem5-checkpoint analogue) and checkpoint-ladder rungs: the LRU tick,
// the statistics, and one index per set into the set-content store the
// state shares with every state saved against it. It is immutable once
// saved: RestoreState copies out of the store, and saves only append to
// it, so content shared by consecutive rung states is never written
// through.
//
// A state holds only content some later run can read. The bytes of a set
// with no valid way are dead — fill overwrites a line's bytes before any
// read, and HashLive skips invalid lines — so such a set is saved as
// metadata alone and restored with zeroed bytes: a restore is a pure
// function of the saved state, whatever the cache held before.
type CacheState struct {
	store *cacheStore
	sets  []uint32 // per set: its entry in store
	tick  uint64
	stats CacheStats
	// owned / shared split the set-content bytes the state refers to
	// into what its own save appended to the store and what it reuses
	// from the states saved before it.
	owned  int
	shared int
}

// cacheStore is the append-only storage of the set contents one chain of
// saved states refers to: a snapshot's single state, or every rung of one
// checkpoint ladder. A save that changes anything appends one exact-size
// block of entries for its changed sets — each entry is the set's line
// metadata plus the number of its data block, or noData for a set with
// no valid way — and one exact-size block of data for the changed live
// sets whose bytes changed. Metadata and data are interned separately
// because a set that was only read since the last save moved its LRU
// stamps but not its bytes.
//
// Entries and data blocks are numbered by a uint32: the number of the
// appended block, shifted left by setBits, plus the position within it.
// A block holds at most one item per set, so the position always fits.
type cacheStore struct {
	ways, lineBytes int
	setBits         uint
	meta            [][]lineMeta // per entry block: ways lines per entry
	dataOf          [][]uint32   // per entry block: each entry's data block
	data            [][]byte     // per data block: ways*lineBytes bytes per set
}

// noData is the data-block number of an entry whose set has no valid
// way: no block stores its dead bytes. nextBlock never hands out the
// block whose last position would collide with it.
const noData = ^uint32(0)

// Accounted sizes of stored set content (checkpoint-ladder memory
// accounting): an entry holds a set's line metadata and its data-block
// number; a data block holds a live set's bytes.
func (s *cacheStore) entryBytes() int {
	return s.ways*int(unsafe.Sizeof(lineMeta{})) + int(unsafe.Sizeof(uint32(0)))
}
func (s *cacheStore) dataBytes() int { return s.ways * s.lineBytes }

// entry returns entry e's line metadata and data-block number.
func (s *cacheStore) entry(e uint32) ([]lineMeta, uint32) {
	blk, pos := e>>s.setBits, int(e&(1<<s.setBits-1))
	return s.meta[blk][pos*s.ways : (pos+1)*s.ways], s.dataOf[blk][pos]
}

// block returns the bytes of data block d, nil for noData.
func (s *cacheStore) block(d uint32) []byte {
	if d == noData {
		return nil
	}
	n := s.dataBytes()
	blk, pos := d>>s.setBits, int(d&(1<<s.setBits-1))
	return s.data[blk][pos*n : (pos+1)*n]
}

// nextBlock returns the number the next appended block gets, n blocks
// already stored. Block numbers take the bits setBits leaves free, the
// all-ones one excepted (it would reach noData); a chain that exhausts
// them would hold more changed-set saves than any ladder's rung count
// reaches.
func (s *cacheStore) nextBlock(n int) uint32 {
	if uint64(n) >= 1<<(32-s.setBits)-1 {
		panic(fmt.Sprintf("mem: cache state store full: %d appended blocks", n))
	}
	return uint32(n) << s.setBits
}

// Set-save classes of SaveStateAgainst's first pass.
const (
	setShared  uint8 = iota // unchanged: reuse the previous state's entry
	setNewMeta              // metadata changed, bytes did not: new entry, old data block
	setNewData              // live and bytes changed: new entry and new data block
	setNewDead              // no valid way, metadata changed: new entry, no data block
)

// SaveState captures the cache content into a store of its own.
func (c *Cache) SaveState() *CacheState { return c.SaveStateAgainst(nil) }

// SaveStateAgainst captures the cache content like SaveState, but into
// prev's store: every set whose ways all equal the same set of prev —
// valid, dirty, tag, LRU stamp and, for a set with a valid way, data
// bytes — reuses prev's entry instead of being copied, and a live set
// whose metadata changed but whose bytes did not reuses prev's data
// block. A set with no valid way stores no bytes at all. This is
// byte-verified interning with no dirty-set tracking in the access path.
// prev must come from a cache of the same geometry, and no other
// goroutine may use states of prev's chain during the save; nil starts a
// new store.
func (c *Cache) SaveStateAgainst(prev *CacheState) *CacheState {
	ways, lb := c.cfg.Ways, int(c.cfg.LineBytes)
	setData := ways * lb
	st := &CacheState{sets: make([]uint32, c.sets), tick: c.tick, stats: c.stats}
	if prev == nil {
		st.store = &cacheStore{ways: ways, lineBytes: lb, setBits: c.setBits}
	} else {
		st.store = prev.store
	}
	store := st.store
	if len(c.kinds) != len(st.sets) {
		c.kinds = make([]uint8, len(st.sets))
	}
	nMeta, nData := 0, 0
	for s := range st.sets {
		live := c.live(s)
		k := setNewDead
		if live {
			k = setNewData
		}
		if prev != nil {
			pm, pd := store.entry(prev.sets[s])
			metaSame := metaEqual(c.meta[s*ways:(s+1)*ways], pm)
			dataSame := live && bytes.Equal(c.data[s*setData:(s+1)*setData], store.block(pd))
			switch {
			case metaSame && (dataSame || !live):
				k = setShared
				st.sets[s] = prev.sets[s]
				st.shared += store.entryBytes()
				if live {
					st.shared += store.dataBytes()
				}
			case dataSame:
				k = setNewMeta
				st.shared += store.dataBytes()
			}
		}
		c.kinds[s] = k
		if k != setShared {
			nMeta++
		}
		if k == setNewData {
			nData++
		}
	}
	if nMeta == 0 {
		return st
	}
	// One exact-size block per kind of content: two or three allocations
	// per save however many sets changed — the checkpoint ladder saves
	// caches thousands of times per campaign.
	metaBase := store.nextBlock(len(store.meta))
	meta := make([]lineMeta, nMeta*ways)
	dataOf := make([]uint32, nMeta)
	var dataBase uint32
	var data []byte
	if nData > 0 {
		dataBase = store.nextBlock(len(store.data))
		data = make([]byte, nData*setData)
	}
	im, id := 0, 0
	for s, k := range c.kinds {
		if k == setShared {
			continue
		}
		copy(meta[im*ways:], c.meta[s*ways:(s+1)*ways])
		switch k {
		case setNewData:
			copy(data[id*setData:], c.data[s*setData:(s+1)*setData])
			dataOf[im] = dataBase | uint32(id)
			id++
		case setNewMeta:
			_, dataOf[im] = store.entry(prev.sets[s])
		default:
			dataOf[im] = noData
		}
		st.sets[s] = metaBase | uint32(im)
		im++
	}
	store.meta = append(store.meta, meta)
	store.dataOf = append(store.dataOf, dataOf)
	if nData > 0 {
		store.data = append(store.data, data)
	}
	st.owned = nMeta*store.entryBytes() + nData*store.dataBytes()
	return st
}

// live reports whether set s has a valid way, that is, bytes some later
// access can read.
func (c *Cache) live(s int) bool {
	for _, v := range c.mirValid[s*c.cfg.Ways : (s+1)*c.cfg.Ways] {
		if v {
			return true
		}
	}
	return false
}

// metaEqual reports whether two sets hold the same line metadata.
func metaEqual(a, b []lineMeta) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// RestoreState restores content captured by SaveState on a cache with the
// same geometry. A set saved without a valid way comes back with zeroed
// bytes, so the restored cache depends on the state alone.
func (c *Cache) RestoreState(st *CacheState) {
	ways := c.cfg.Ways
	setData := ways * int(c.cfg.LineBytes)
	for s, e := range st.sets {
		meta, d := st.store.entry(e)
		copy(c.meta[s*ways:(s+1)*ways], meta)
		dst := c.data[s*setData : (s+1)*setData]
		if d == noData {
			clear(dst)
		} else {
			copy(dst, st.store.block(d))
		}
	}
	c.tick = st.tick
	c.stats = st.stats
	c.syncMirrorAll()
}

// Equal reports whether two saved states hold identical content: tick,
// statistics, every way's metadata of every set and the bytes of every
// live set, whether copied or shared.
func (st *CacheState) Equal(o *CacheState) bool {
	if st.tick != o.tick || st.stats != o.stats || len(st.sets) != len(o.sets) ||
		st.store.ways != o.store.ways || st.store.lineBytes != o.store.lineBytes {
		return false
	}
	for s := range st.sets {
		am, ad := st.store.entry(st.sets[s])
		bm, bd := o.store.entry(o.sets[s])
		if !metaEqual(am, bm) || !bytes.Equal(st.store.block(ad), o.store.block(bd)) {
			return false
		}
	}
	return true
}

// MemoryBytes reports the set-content bytes this state's save appended to
// its store (checkpoint-ladder memory accounting). Content shared with
// the states saved before it is counted by the state that appended it —
// see SharedBytes — and the per-set index by IndexBytes.
func (st *CacheState) MemoryBytes() int { return st.owned }

// SharedBytes returns the set-content bytes this state reuses from the
// states saved before it instead of copying.
func (st *CacheState) SharedBytes() int { return st.shared }

// IndexBytes returns the size of the state's per-set index into its
// store, which every state holds whatever it shares.
func (st *CacheState) IndexBytes() int { return len(st.sets) * int(unsafe.Sizeof(uint32(0))) }
