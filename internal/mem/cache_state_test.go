package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkMirror verifies the packed tag/valid mirror agrees with the line
// array, and that the mirror-backed lookup returns the FIRST matching way
// of a set — FlipTagBit can alias two ways onto one tag, and the
// machine-visible semantics are first-match.
func checkMirror(t *testing.T, c *Cache) {
	t.Helper()
	ways := c.cfg.Ways
	for i := range c.meta {
		if c.mirTags[i] != c.meta[i].tag || c.mirValid[i] != c.meta[i].valid {
			t.Fatalf("mirror out of sync at set %d way %d: mirror (%#x,%v) line (%#x,%v)",
				i/ways, i%ways, c.mirTags[i], c.mirValid[i], c.meta[i].tag, c.meta[i].valid)
		}
	}
	for s := 0; s < int(c.sets); s++ {
		set := c.meta[s*ways : (s+1)*ways]
		// Reference first-match scan over the line array itself.
		for w := range set {
			ln := &set[w]
			if !ln.valid {
				continue
			}
			want := -1
			for v := range set {
				if set[v].valid && set[v].tag == ln.tag {
					want = v
					break
				}
			}
			if got := c.lookup(ln.tag, uint32(s)); got != want {
				t.Fatalf("lookup(tag %#x, set %d) = way %d, want first match %d", ln.tag, s, got, want)
			}
		}
	}
}

// TestCacheStateRoundTripRandomized drives a cache through random reads,
// writes, tag flips, invalidations, and flushes; snapshots it; diverges
// it further; and then restores — the restored cache must be deep-equal
// to the snapshot with a coherent lookup mirror at every step.
func TestCacheStateRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)

	step := func() {
		addr := uint32(rng.Intn(1<<14)) &^ 3
		switch rng.Intn(10) {
		case 0:
			c.FlipTagBit(uint64(rng.Int63n(int64(c.TotalTagBits()))))
		case 1:
			c.InvalidateRange(addr&^31, 256)
		case 2:
			c.FlushAll()
		case 3:
			c.InvalidateAll()
		case 4, 5, 6:
			// Flipped tags can point writebacks at nonexistent addresses;
			// a failed access is acceptable, incoherent state is not.
			c.Write(addr, 4, rng.Uint32())
		default:
			c.Read(addr, 4)
		}
	}

	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			step()
		}
		checkMirror(t, c)
		st := c.SaveState()
		for i := 0; i < 150; i++ {
			step()
		}
		c.RestoreState(st)
		checkMirror(t, c)
		if again := c.SaveState(); !st.Equal(again) {
			t.Fatalf("round %d: restored cache state differs from snapshot", round)
		}
	}
}

// TestSaveStateAgainstInternsUntouchedSets pins the rung-capture
// interning: saved against its predecessor, a state shares exactly the
// sets no access touched in between, copies the rest, accounts both, and
// restores to the same content as a plain deep copy. Restoring and then
// mutating the cache must leave both saved states intact.
func TestSaveStateAgainstInternsUntouchedSets(t *testing.T) {
	c := NewCache(smallCacheCfg("c"), NewBus(NewDRAM(1<<16)))
	for a := uint32(0); a < 1<<12; a += 4 {
		c.Write(a, 4, a*2654435761)
	}
	prev := c.SaveState()
	full := prev.MemoryBytes()
	if prev.SharedBytes() != 0 || full == 0 {
		t.Fatalf("plain save: owned %d shared %d", full, prev.SharedBytes())
	}

	// Touch one set only: its line is already resident, so the write
	// changes data and LRU of that set alone.
	touched := uint32(2)
	c.Write(3<<10|touched<<c.offBits, 4, 0xDEADBEEF)
	st := c.SaveStateAgainst(prev)
	setBytes := full / len(st.sets)
	if st.MemoryBytes() != setBytes || st.SharedBytes() != full-setBytes {
		t.Fatalf("owned %d shared %d, want %d and %d", st.MemoryBytes(), st.SharedBytes(), setBytes, full-setBytes)
	}
	for s := range st.sets {
		shared := st.sets[s] == prev.sets[s]
		if shared == (uint32(s) == touched) {
			t.Fatalf("set %d: shared=%v, touched set is %d", s, shared, touched)
		}
	}
	if !st.Equal(c.SaveState()) {
		t.Fatal("interned state differs from a plain deep copy")
	}

	stCopy := c.SaveState()
	c.RestoreState(prev)
	prevCopy := c.SaveState()
	c.RestoreState(st)
	for a := uint32(0); a < 1<<12; a += 4 {
		c.Write(a, 4, ^a)
	}
	c.FlipTagBit(5)
	if !prev.Equal(prevCopy) || !st.Equal(stCopy) {
		t.Fatal("mutating a restored cache wrote through into a saved state")
	}
}

// TestDeadSetSavesNoData pins what a save keeps of a set with no valid
// way: its metadata alone, no data block, and a restore that zeroes its
// bytes whatever the cache held — while a live set's bytes, including
// those of its invalid ways, round-trip exactly.
func TestDeadSetSavesNoData(t *testing.T) {
	c := NewCache(smallCacheCfg("c"), NewBus(NewDRAM(1<<16)))
	rng := rand.New(rand.NewSource(3))
	setData := c.cfg.Ways * int(c.cfg.LineBytes)
	// Two live sets; every other set holds random dead bytes.
	rng.Read(c.data)
	c.Write(1<<c.offBits, 4, 0x11111111)
	c.Write(5<<c.offBits, 4, 0x55555555)
	liveSets := map[int]bool{1: true, 5: true}

	st := c.SaveState()
	want := int(c.sets)*st.store.entryBytes() + len(liveSets)*setData
	if st.MemoryBytes() != want || len(st.store.data) != 1 || len(st.store.data[0]) != len(liveSets)*setData {
		t.Fatalf("owned %d in %d data blocks, want %d with one block of %d live sets",
			st.MemoryBytes(), len(st.store.data), want, len(liveSets))
	}
	for s := range st.sets {
		if _, d := st.store.entry(st.sets[s]); (d == noData) == liveSets[s] {
			t.Fatalf("set %d (live %v): data block %#x", s, liveSets[s], d)
		}
	}
	saved := append([]byte(nil), c.data...)

	rng.Read(c.data)
	c.RestoreState(st)
	for s := 0; s < int(c.sets); s++ {
		got := c.data[s*setData : (s+1)*setData]
		want := make([]byte, setData)
		if liveSets[s] {
			want = saved[s*setData : (s+1)*setData]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("set %d (live %v): restored bytes % x, want % x", s, liveSets[s], got, want)
		}
	}
	checkMirror(t, c)

	// A set that dies is saved against its live predecessor as a new
	// entry with no data block; an unchanged dead set is shared whatever
	// its bytes.
	c.InvalidateRange(5<<c.offBits, c.cfg.LineBytes)
	c.data[3*setData] ^= 0xff
	next := c.SaveStateAgainst(st)
	if next.MemoryBytes() != next.store.entryBytes() || len(next.store.data) != 1 {
		t.Fatalf("a set dying: owned %d, %d data blocks; want one entry, no block",
			next.MemoryBytes(), len(next.store.data))
	}
	if _, d := next.store.entry(next.sets[5]); d != noData || next.sets[3] != st.sets[3] {
		t.Fatalf("dead set 5 data block %#x; set 3 entry %#x, was %#x", d, next.sets[3], st.sets[3])
	}
}
