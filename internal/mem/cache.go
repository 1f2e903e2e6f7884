package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// CacheConfig describes the geometry and timing of one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes uint32
	LineBytes uint32
	Ways      int
	HitCycles int // latency added on a hit
}

// Validate checks the geometry for internal consistency.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.LineBytes == 0 || c.Ways <= 0:
		return fmt.Errorf("mem: cache %q has zero-sized geometry", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: cache %q line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*uint32(c.Ways)) != 0:
		return fmt.Errorf("mem: cache %q size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / c.LineBytes / uint32(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() uint32 { return c.SizeBytes / c.LineBytes / uint32(c.Ways) }

// cacheLine is one way of one set, including the stored data bits.
type cacheLine struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64 // last-touched tick, larger is more recent
	data  []byte
}

// CacheStats counts cache events for the performance-counter comparison of
// Section IV-D.
type CacheStats struct {
	Reads      uint64
	Writes     uint64
	Misses     uint64
	Writebacks uint64
}

// Accesses returns total accesses.
func (s CacheStats) Accesses() uint64 { return s.Reads + s.Writes }

// Backing is the next level below a cache: either another cache or the
// memory bus.
type Backing interface {
	// FetchLine reads the aligned line containing addr into buf and returns
	// the added latency. ok is false on a bus error (nonexistent physical
	// address), which the CPU turns into an abort.
	FetchLine(addr uint32, buf []byte) (lat int, ok bool)
	// WriteBackLine writes an evicted dirty line and returns the added
	// latency.
	WriteBackLine(addr uint32, buf []byte) (lat int, ok bool)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement that stores real data bits. It implements Backing so caches
// stack into a hierarchy.
type Cache struct {
	cfg     CacheConfig
	sets    uint32
	lines   [][]cacheLine // [set][way]
	below   Backing
	tick    uint64
	stats   CacheStats
	rec     *CacheLiveness
	offBits uint
	setBits uint

	// Packed mirror of each line's tag and valid bit, indexed set-major
	// (set*Ways + way). The lookup hot path scans these contiguous arrays
	// instead of striding across the much larger cacheLine structs; every
	// tag/valid mutation goes through syncMirror to keep them coherent.
	mirTags  []uint32
	mirValid []bool

	// Single-location taint for the propagation provenance probe: the
	// (set, way, line byte) holding an injected bit. A nil probe means no
	// taint is tracked and every hook reduces to one pointer compare.
	taintProbe *Probe
	taintSet   uint32
	taintWay   int
	taintOff   uint32
}

var _ Backing = (*Cache)(nil)

// NewCache builds a cache over the given backing level. It panics on an
// invalid geometry: configurations are static, in-tree data.
func NewCache(cfg CacheConfig, below Backing) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, sets: cfg.Sets(), below: below}
	c.offBits = log2(cfg.LineBytes)
	c.setBits = log2(c.sets)
	c.lines = make([][]cacheLine, c.sets)
	for s := range c.lines {
		ways := make([]cacheLine, cfg.Ways)
		for w := range ways {
			ways[w].data = make([]byte, cfg.LineBytes)
		}
		c.lines[s] = ways
	}
	c.mirTags = make([]uint32, int(c.sets)*cfg.Ways)
	c.mirValid = make([]bool, int(c.sets)*cfg.Ways)
	return c
}

// syncMirror refreshes the packed tag/valid mirror of one way; call after
// any mutation of a line's tag or valid bit.
func (c *Cache) syncMirror(set uint32, w int) {
	ln := &c.lines[set][w]
	i := int(set)*c.cfg.Ways + w
	c.mirTags[i] = ln.tag
	c.mirValid[i] = ln.valid
}

// syncMirrorAll rebuilds the whole mirror (bulk restores).
func (c *Cache) syncMirrorAll() {
	for s := range c.lines {
		for w := range c.lines[s] {
			c.syncMirror(uint32(s), w)
		}
	}
}

func log2(v uint32) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// HitCycles returns the hit latency without copying the whole config —
// the fetch stage reads it every simulated cycle.
func (c *Cache) HitCycles() int { return c.cfg.HitCycles }

// Stats returns the event counters accumulated since the last reset.
func (c *Cache) Stats() CacheStats { return c.stats }

// SizeBits returns the number of modeled data bits, the Size(bits) term of
// the paper's FIT_component = FIT_raw * Size * AVF formula.
func (c *Cache) SizeBits() uint64 { return uint64(c.cfg.SizeBytes) * 8 }

func (c *Cache) split(addr uint32) (tag, set, off uint32) {
	off = addr & (c.cfg.LineBytes - 1)
	set = addr >> c.offBits & (c.sets - 1)
	tag = addr >> (c.offBits + c.setBits)
	return tag, set, off
}

// lookup returns the way index holding addr, or -1. It scans the packed
// mirror in way order and returns the FIRST valid match: a tag-array fault
// (FlipTagBit) can create duplicate tags within a set, and which way wins
// is machine-visible state, so any fast path must preserve first-match
// semantics exactly.
func (c *Cache) lookup(tag, set uint32) int {
	base := int(set) * c.cfg.Ways
	tags := c.mirTags[base : base+c.cfg.Ways]
	for w := range tags {
		if tags[w] == tag && c.mirValid[base+w] {
			return w
		}
	}
	return -1
}

// victim picks the LRU way of a set.
func (c *Cache) victim(set uint32) int {
	best, bestTick := 0, ^uint64(0)
	for w := range c.lines[set] {
		ln := &c.lines[set][w]
		if !ln.valid {
			return w
		}
		if ln.lru < bestTick {
			best, bestTick = w, ln.lru
		}
	}
	return best
}

// lineAddr reconstructs the physical address of a line from its tag and set.
func (c *Cache) lineAddr(tag, set uint32) uint32 {
	return tag<<(c.offBits+c.setBits) | set<<c.offBits
}

// fill brings the line containing addr into the cache, evicting as needed.
// It returns the way index, the added latency, and whether the backing
// access succeeded.
func (c *Cache) fill(tag, set uint32, addr uint32) (int, int, bool) {
	w := c.victim(set)
	ln := &c.lines[set][w]
	lat := 0
	if c.rec != nil && ln.valid {
		c.rec.evict(set, w, ln.dirty)
	}
	var probe *Probe
	var probeOff uint32
	if c.taintAt(set, w) {
		// The victim way holds the taint; the refill recycles it either
		// way, so resolve the taint's fate before touching the data.
		probe, probeOff = c.taintProbe, c.taintOff
		c.ClearTaint()
	}
	if ln.valid && ln.dirty {
		wbAddr := c.lineAddr(ln.tag, set)
		wbLat, ok := c.below.WriteBackLine(wbAddr, ln.data)
		lat += wbLat
		if !ok {
			return w, lat, false
		}
		c.stats.Writebacks++
		if probe != nil {
			// Dirty eviction: the corruption travelled down with the line
			// and the level below takes over the taint. The absorb runs
			// after the writeback so the receiving level does not mistake
			// the arriving corrupted data for an overwrite of it.
			probe.NoteWriteback(c.cfg.Name)
			if abs, ok := c.below.(taintAbsorber); ok {
				abs.AbsorbTaint(wbAddr+probeOff, probe)
			}
			probe = nil
		}
	} else if probe != nil && ln.valid {
		probe.NoteCleanEvict(c.cfg.Name)
		probe = nil
	}
	fLat, ok := c.below.FetchLine(addr&^(c.cfg.LineBytes-1), ln.data)
	lat += fLat
	if !ok {
		ln.valid = false
		c.syncMirror(set, w)
		return w, lat, false
	}
	if probe != nil {
		// The flip had landed in an invalid line; the refill replaced the
		// dead corrupted bits with fresh data.
		probe.NoteOverwrite(c.cfg.Name)
	}
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	c.syncMirror(set, w)
	if c.rec != nil {
		c.rec.fill(set, w, addr&^(c.cfg.LineBytes-1))
	}
	return w, lat, true
}

// access performs a read or write of up to 8 bytes entirely within one line.
func (c *Cache) access(addr uint32, buf []byte, write bool) (int, bool) {
	tag, set, off := c.split(addr)
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	lat := c.cfg.HitCycles
	w := c.lookup(tag, set)
	if w < 0 {
		c.stats.Misses++
		var ok bool
		var fillLat int
		w, fillLat, ok = c.fill(tag, set, addr)
		lat += fillLat
		if !ok {
			return lat, false
		}
	}
	ln := &c.lines[set][w]
	c.tick++
	ln.lru = c.tick
	if write {
		copy(ln.data[off:], buf)
		ln.dirty = true
		if c.rec != nil {
			c.rec.access(set, w, off, uint32(len(buf)), true)
		}
		if c.taintAt(set, w) && off <= c.taintOff && c.taintOff < off+uint32(len(buf)) {
			c.taintProbe.NoteOverwrite(c.cfg.Name)
			c.ClearTaint()
		}
	} else {
		copy(buf, ln.data[off:int(off)+len(buf)])
		if c.rec != nil {
			c.rec.access(set, w, off, uint32(len(buf)), false)
		}
		if c.taintAt(set, w) && off <= c.taintOff && c.taintOff < off+uint32(len(buf)) {
			c.taintProbe.NoteRead(c.cfg.Name)
		}
	}
	return lat, true
}

// Read reads size bytes (1, 2, or 4; never crossing a line) at addr.
func (c *Cache) Read(addr uint32, size uint32) (uint32, int, bool) {
	var buf [4]byte
	lat, ok := c.access(addr, buf[:size], false)
	if !ok {
		return 0, lat, false
	}
	switch size {
	case 1:
		return uint32(buf[0]), lat, true
	case 2:
		return uint32(binary.LittleEndian.Uint16(buf[:])), lat, true
	default:
		return binary.LittleEndian.Uint32(buf[:]), lat, true
	}
}

// Write stores size bytes (1, 2, or 4) of val at addr.
func (c *Cache) Write(addr uint32, size uint32, val uint32) (int, bool) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], val)
	return c.access(addr, buf[:size], true)
}

// FetchLine implements Backing for an upper-level cache.
func (c *Cache) FetchLine(addr uint32, buf []byte) (int, bool) {
	tag, set, _ := c.split(addr)
	c.stats.Reads++
	lat := c.cfg.HitCycles
	w := c.lookup(tag, set)
	if w < 0 {
		c.stats.Misses++
		var ok bool
		var fillLat int
		w, fillLat, ok = c.fill(tag, set, addr)
		lat += fillLat
		if !ok {
			return lat, false
		}
	}
	ln := &c.lines[set][w]
	c.tick++
	ln.lru = c.tick
	copy(buf, ln.data)
	if c.rec != nil {
		c.rec.access(set, w, 0, c.cfg.LineBytes, false)
	}
	if c.taintAt(set, w) {
		// A whole-line fetch always covers the corrupted byte: the upper
		// level (and ultimately the core) consumed the corruption.
		c.taintProbe.NoteRead(c.cfg.Name)
	}
	return lat, true
}

// WriteBackLine implements Backing for an upper-level cache: the victim line
// of the level above is absorbed here (write-allocate).
func (c *Cache) WriteBackLine(addr uint32, buf []byte) (int, bool) {
	tag, set, _ := c.split(addr)
	c.stats.Writes++
	lat := c.cfg.HitCycles
	w := c.lookup(tag, set)
	if w < 0 {
		c.stats.Misses++
		var ok bool
		var fillLat int
		w, fillLat, ok = c.fill(tag, set, addr)
		lat += fillLat
		if !ok {
			return lat, false
		}
	}
	ln := &c.lines[set][w]
	c.tick++
	ln.lru = c.tick
	copy(ln.data, buf)
	ln.dirty = true
	if c.rec != nil {
		c.rec.access(set, w, 0, c.cfg.LineBytes, true)
	}
	if c.taintAt(set, w) {
		// The upper level's writeback replaces the whole corrupted line.
		c.taintProbe.NoteOverwrite(c.cfg.Name)
		c.ClearTaint()
	}
	return lat, true
}

// InvalidateAll drops every line without writing dirty data back. Used when
// the platform resets between fault-injection runs.
func (c *Cache) InvalidateAll() {
	if p := c.taintProbe; p != nil {
		if c.lines[c.taintSet][c.taintWay].valid {
			p.NoteCleanEvict(c.cfg.Name)
		}
		c.ClearTaint()
	}
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.rec != nil && c.lines[s][w].valid {
				// Invalidation discards dirty data without writeback: a
				// clean-discard event, matching the probe's verdict.
				c.rec.evict(uint32(s), w, false)
			}
			c.lines[s][w].valid = false
			c.lines[s][w].dirty = false
		}
	}
	for i := range c.mirValid {
		c.mirValid[i] = false
	}
	c.stats = CacheStats{}
	// With no valid lines left there is no LRU order to preserve, so reset
	// the clock: cold restores become bit-deterministic (equal absolute LRU
	// stamps run over run), which the checkpoint-ladder fingerprints rely on.
	c.tick = 0
}

// FlushAll writes every dirty line back and invalidates the cache.
func (c *Cache) FlushAll() {
	for s := range c.lines {
		for w := range c.lines[s] {
			ln := &c.lines[s][w]
			if c.rec != nil && ln.valid {
				c.rec.evict(uint32(s), w, ln.dirty)
			}
			if ln.valid && ln.dirty {
				wbAddr := c.lineAddr(ln.tag, uint32(s))
				c.below.WriteBackLine(wbAddr, ln.data)
				if c.taintAt(uint32(s), w) {
					p, off := c.taintProbe, c.taintOff
					c.ClearTaint()
					p.NoteWriteback(c.cfg.Name)
					if abs, ok := c.below.(taintAbsorber); ok {
						abs.AbsorbTaint(wbAddr+off, p)
					}
				}
			} else if c.taintAt(uint32(s), w) {
				if ln.valid {
					c.taintProbe.NoteCleanEvict(c.cfg.Name)
				}
				c.ClearTaint()
			}
			ln.valid = false
			ln.dirty = false
		}
	}
	for i := range c.mirValid {
		c.mirValid[i] = false
	}
}

// --- Fault-injection surface ---------------------------------------------

// FlipDataBit inverts one stored data bit, addressed linearly across the
// whole data array: bit / 8 selects the byte in set-major, way-minor,
// line-offset order. The flip lands whether or not the line is valid, just
// as a particle strike does; an invalid or later-refilled line masks it.
func (c *Cache) FlipDataBit(bit uint64) {
	lineBits := uint64(c.cfg.LineBytes) * 8
	wayBits := lineBits * uint64(c.cfg.Ways)
	set := bit / wayBits % uint64(c.sets)
	way := bit % wayBits / lineBits
	off := bit % lineBits
	c.lines[set][way].data[off/8] ^= 1 << (off % 8)
}

// taintAt reports whether the tainted line is (set, w).
func (c *Cache) taintAt(set uint32, w int) bool {
	return c.taintProbe != nil && set == c.taintSet && w == c.taintWay
}

// TaintDataBit marks the line holding a linearly-addressed data bit (same
// addressing as FlipDataBit) as tainted and arms the probe. Called at flip
// time, before the flip lands, so liveness reflects the struck state.
func (c *Cache) TaintDataBit(bit uint64, p *Probe) {
	lineBits := uint64(c.cfg.LineBytes) * 8
	wayBits := lineBits * uint64(c.cfg.Ways)
	c.taintProbe = p
	c.taintSet = uint32(bit / wayBits % uint64(c.sets))
	c.taintWay = int(bit % wayBits / lineBits)
	c.taintOff = uint32(bit % lineBits / 8)
	p.Arm(c.lines[c.taintSet][c.taintWay].valid)
}

// ClearTaint drops any tracked taint without emitting an event.
func (c *Cache) ClearTaint() {
	c.taintProbe = nil
	c.taintSet, c.taintWay, c.taintOff = 0, 0, 0
}

// AbsorbTaint takes over a taint pushed down by the level above's dirty
// writeback. If the corrupted address is not resident here the taint
// continues down the hierarchy.
func (c *Cache) AbsorbTaint(addr uint32, p *Probe) {
	tag, set, off := c.split(addr)
	if w := c.lookup(tag, set); w >= 0 {
		c.taintProbe = p
		c.taintSet, c.taintWay, c.taintOff = set, w, off
		return
	}
	if abs, ok := c.below.(taintAbsorber); ok {
		abs.AbsorbTaint(addr, p)
	}
}

// ValidLines returns how many lines currently hold valid data.
func (c *Cache) ValidLines() int {
	n := 0
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].valid {
				n++
			}
		}
	}
	return n
}

// DirtyLines returns how many lines are valid and dirty.
func (c *Cache) DirtyLines() int {
	n := 0
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].valid && c.lines[s][w].dirty {
				n++
			}
		}
	}
	return n
}

// TagBits returns the number of tag bits per line (for the tag-array
// injection ablation).
func (c *Cache) TagBits() uint {
	return 32 - c.offBits - c.setBits
}

// FlipTagBit inverts one bit of a line's tag, addressed linearly across the
// tag array. A tag flip on a clean line turns later hits into misses (the
// fault is usually masked by a refill); on a dirty line it writes the data
// back to the wrong physical address — silent corruption of another line.
func (c *Cache) FlipTagBit(bit uint64) {
	perLine := uint64(c.TagBits())
	line := bit / perLine
	set := line / uint64(c.cfg.Ways) % uint64(c.sets)
	way := line % uint64(c.cfg.Ways)
	c.lines[set][way].tag ^= 1 << (bit % perLine)
	c.syncMirror(uint32(set), int(way))
}

// TotalTagBits returns the size of the tag array in bits.
func (c *Cache) TotalTagBits() uint64 {
	return uint64(c.sets) * uint64(c.cfg.Ways) * uint64(c.TagBits())
}

// CacheState is a deep copy of a cache's content, captured by Machine
// snapshots (the gem5-checkpoint analogue) and checkpoint-ladder rungs.
// It is immutable once saved: RestoreState copies out of it, so a set
// shared by consecutive rung states is never written through.
type CacheState struct {
	lines [][]cacheLine
	tick  uint64
	stats CacheStats
	// owned / shared split the retained line bytes into sets this state
	// copied and sets it shares with the state it was saved against.
	owned  int
	shared int
}

// lineOverhead is the accounted per-line bookkeeping beyond the data
// bytes (checkpoint-ladder memory accounting).
const lineOverhead = 48

// SaveState deep-copies the cache content.
func (c *Cache) SaveState() *CacheState { return c.SaveStateAgainst(nil) }

// SaveStateAgainst captures the cache content like SaveState, but every
// set whose ways all equal the same set of prev — valid, dirty, tag, LRU
// stamp and data bytes — is shared with prev instead of copied:
// byte-verified interning with no dirty-set tracking in the access path.
// prev must come from a cache of the same geometry; nil copies every set.
func (c *Cache) SaveStateAgainst(prev *CacheState) *CacheState {
	st := &CacheState{tick: c.tick, stats: c.stats}
	st.lines = make([][]cacheLine, len(c.lines))
	if len(c.lines) == 0 {
		return st
	}
	nways := len(c.lines[0])
	lineBytes := len(c.lines[0][0].data)
	setBytes := nways * (lineBytes + lineOverhead)
	changed := len(c.lines)
	if prev != nil {
		for s := range c.lines {
			if setsEqual(c.lines[s], prev.lines[s]) {
				st.lines[s] = prev.lines[s]
				st.shared += setBytes
				changed--
			}
		}
	}
	// The geometry is uniform, so one backing array serves every copied
	// set and one byte buffer every copied line: three allocations per
	// save instead of two per set — the checkpoint ladder saves caches
	// thousands of times per campaign.
	ways := make([]cacheLine, changed*nways)
	buf := make([]byte, changed*nways*lineBytes)
	for s := range c.lines {
		if st.lines[s] != nil {
			continue
		}
		set := ways[:nways:nways]
		ways = ways[nways:]
		for w := range c.lines[s] {
			set[w] = c.lines[s][w]
			data := buf[:lineBytes:lineBytes]
			buf = buf[lineBytes:]
			copy(data, c.lines[s][w].data)
			set[w].data = data
		}
		st.lines[s] = set
		st.owned += setBytes
	}
	return st
}

// setsEqual reports whether two sets hold identical ways, cheap fields
// first so a touched set is usually rejected before any data compare.
func setsEqual(a, b []cacheLine) bool {
	for w := range a {
		x, y := &a[w], &b[w]
		if x.valid != y.valid || x.dirty != y.dirty || x.tag != y.tag || x.lru != y.lru {
			return false
		}
	}
	for w := range a {
		if !bytes.Equal(a[w].data, b[w].data) {
			return false
		}
	}
	return true
}

// RestoreState restores content captured by SaveState on a cache with the
// same geometry.
func (c *Cache) RestoreState(st *CacheState) {
	for s := range c.lines {
		for w := range c.lines[s] {
			src := st.lines[s][w]
			dst := &c.lines[s][w]
			data := dst.data
			copy(data, src.data)
			*dst = src
			dst.data = data
		}
	}
	c.tick = st.tick
	c.stats = st.stats
	c.syncMirrorAll()
}

// Equal reports whether two saved states hold identical content: tick,
// statistics and every way of every set, whether copied or shared.
func (st *CacheState) Equal(o *CacheState) bool {
	if st.tick != o.tick || st.stats != o.stats || len(st.lines) != len(o.lines) {
		return false
	}
	for s := range st.lines {
		if len(st.lines[s]) != len(o.lines[s]) || !setsEqual(st.lines[s], o.lines[s]) {
			return false
		}
	}
	return true
}

// MemoryBytes estimates the retained size of the saved content
// (checkpoint-ladder memory accounting). Sets shared with the state this
// one was saved against are counted by the state that owns them — see
// SharedBytes.
func (st *CacheState) MemoryBytes() int { return st.owned }

// SharedBytes returns the line bytes this state shares with the state it
// was saved against instead of copying.
func (st *CacheState) SharedBytes() int { return st.shared }

// FlushInto overlays every valid dirty line onto dst without disturbing
// cache state or raising probe events. Machine snapshots use it to build a
// coherent DRAM image in a copy-on-write clone while the caches keep their
// (possibly dirty) content.
func (c *Cache) FlushInto(dst *DRAM) {
	for s := range c.lines {
		for w := range c.lines[s] {
			ln := &c.lines[s][w]
			if !ln.valid || !ln.dirty {
				continue
			}
			addr := c.lineAddr(ln.tag, uint32(s))
			if dst.Contains(addr, uint32(len(ln.data))) {
				dst.write(addr, ln.data)
			}
		}
	}
}

// InvalidateRange drops (without writeback) every line whose address falls
// in [base, base+size). Used when a fresh application image is loaded into
// DRAM underneath a live cache hierarchy.
func (c *Cache) InvalidateRange(base, size uint32) {
	for s := range c.lines {
		for w := range c.lines[s] {
			ln := &c.lines[s][w]
			if !ln.valid {
				continue
			}
			addr := c.lineAddr(ln.tag, uint32(s))
			if addr >= base && addr < base+size {
				if c.rec != nil {
					c.rec.evict(uint32(s), w, false)
				}
				if c.taintAt(uint32(s), w) {
					c.taintProbe.NoteCleanEvict(c.cfg.Name)
					c.ClearTaint()
				}
				ln.valid = false
				ln.dirty = false
				c.syncMirror(uint32(s), w)
			}
		}
	}
}

// LineInfo resolves a linear data-array bit index to the line's current
// physical address and state — the injector's observability hook ("where
// exactly did the fault strike").
func (c *Cache) LineInfo(bit uint64) (addr uint32, valid, dirty bool) {
	lineBits := uint64(c.cfg.LineBytes) * 8
	wayBits := lineBits * uint64(c.cfg.Ways)
	set := uint32(bit / wayBits % uint64(c.sets))
	way := int(bit % wayBits / lineBits)
	ln := &c.lines[set][way]
	return c.lineAddr(ln.tag, set), ln.valid, ln.dirty
}

// VisitValidLines calls fn for every valid line with its physical address
// and dirty state; used for cache-residency profiling.
func (c *Cache) VisitValidLines(fn func(addr uint32, dirty bool)) {
	for s := range c.lines {
		for w := range c.lines[s] {
			ln := &c.lines[s][w]
			if ln.valid {
				fn(c.lineAddr(ln.tag, uint32(s)), ln.dirty)
			}
		}
	}
}
