package mem

import (
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

// lineMeta is the tag-array state of one way of one set; the line's data
// bits live in the cache's flat data array.
type lineMeta struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64 // last-touched tick, larger is more recent
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
	cfg  CacheConfig
	sets uint32
	// meta holds every line's tag-array state, set-major (set*Ways +
	// way); data holds the data bits in the same order, LineBytes per
	// line — exactly the FlipDataBit addressing.
	meta    []lineMeta
	data    []byte
	below   Backing
	tick    uint64
	stats   CacheStats
	rec     *CacheLiveness
	offBits uint
	setBits uint

	// Packed mirror of each line's tag and valid bit, indexed like meta.
	// The lookup hot path scans these contiguous arrays instead of
	// striding across the larger lineMeta structs; every tag/valid
	// mutation goes through syncMirror to keep them coherent.
	mirTags  []uint32
	mirValid []bool

	// Single-location taint for the propagation provenance probe: the
	// (set, way, line byte) holding an injected bit. A nil probe means no
	// taint is tracked and every hook reduces to one pointer compare.
	taintProbe *Probe
	taintSet   uint32
	taintWay   int
	taintOff   uint32

	// kinds is SaveStateAgainst's per-set scratch, kept between saves so
	// a save allocates only what it stores.
	kinds []uint8
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
	lines := int(c.sets) * cfg.Ways
	c.meta = make([]lineMeta, lines)
	c.data = make([]byte, lines*int(cfg.LineBytes))
	c.mirTags = make([]uint32, lines)
	c.mirValid = make([]bool, lines)
	return c
}

// line returns the tag-array state of way w of set.
func (c *Cache) line(set uint32, w int) *lineMeta { return &c.meta[int(set)*c.cfg.Ways+w] }

// lineData returns the data bits of way w of set.
func (c *Cache) lineData(set uint32, w int) []byte {
	lb := int(c.cfg.LineBytes)
	i := (int(set)*c.cfg.Ways + w) * lb
	return c.data[i : i+lb : i+lb]
}

// syncMirror refreshes the packed tag/valid mirror of one way; call after
// any mutation of a line's tag or valid bit.
func (c *Cache) syncMirror(set uint32, w int) {
	i := int(set)*c.cfg.Ways + w
	c.mirTags[i] = c.meta[i].tag
	c.mirValid[i] = c.meta[i].valid
}

// syncMirrorAll rebuilds the whole mirror (bulk restores).
func (c *Cache) syncMirrorAll() {
	for i := range c.meta {
		c.mirTags[i] = c.meta[i].tag
		c.mirValid[i] = c.meta[i].valid
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
	base := int(set) * c.cfg.Ways
	for w, ln := range c.meta[base : base+c.cfg.Ways] {
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
	ln := c.line(set, w)
	data := c.lineData(set, w)
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
		wbLat, ok := c.below.WriteBackLine(wbAddr, data)
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
	fLat, ok := c.below.FetchLine(addr&^(c.cfg.LineBytes-1), data)
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
	ln := c.line(set, w)
	data := c.lineData(set, w)
	c.tick++
	ln.lru = c.tick
	if write {
		copy(data[off:], buf)
		ln.dirty = true
		if c.rec != nil {
			c.rec.access(set, w, off, uint32(len(buf)), true)
		}
		if c.taintAt(set, w) && off <= c.taintOff && c.taintOff < off+uint32(len(buf)) {
			c.taintProbe.NoteOverwrite(c.cfg.Name)
			c.ClearTaint()
		}
	} else {
		copy(buf, data[off:int(off)+len(buf)])
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
	c.tick++
	c.line(set, w).lru = c.tick
	copy(buf, c.lineData(set, w))
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
	ln := c.line(set, w)
	c.tick++
	ln.lru = c.tick
	copy(c.lineData(set, w), buf)
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
		if c.line(c.taintSet, c.taintWay).valid {
			p.NoteCleanEvict(c.cfg.Name)
		}
		c.ClearTaint()
	}
	for i := range c.meta {
		if c.rec != nil && c.meta[i].valid {
			// Invalidation discards dirty data without writeback: a
			// clean-discard event, matching the probe's verdict.
			c.rec.evict(uint32(i/c.cfg.Ways), i%c.cfg.Ways, false)
		}
		c.meta[i].valid = false
		c.meta[i].dirty = false
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
	for i := range c.meta {
		ln := &c.meta[i]
		s, w := uint32(i/c.cfg.Ways), i%c.cfg.Ways
		if c.rec != nil && ln.valid {
			c.rec.evict(s, w, ln.dirty)
		}
		if ln.valid && ln.dirty {
			wbAddr := c.lineAddr(ln.tag, s)
			c.below.WriteBackLine(wbAddr, c.lineData(s, w))
			if c.taintAt(s, w) {
				p, off := c.taintProbe, c.taintOff
				c.ClearTaint()
				p.NoteWriteback(c.cfg.Name)
				if abs, ok := c.below.(taintAbsorber); ok {
					abs.AbsorbTaint(wbAddr+off, p)
				}
			}
		} else if c.taintAt(s, w) {
			if ln.valid {
				c.taintProbe.NoteCleanEvict(c.cfg.Name)
			}
			c.ClearTaint()
		}
		ln.valid = false
		ln.dirty = false
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
	c.data[bit/8%uint64(len(c.data))] ^= 1 << (bit % 8)
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
	p.Arm(c.line(c.taintSet, c.taintWay).valid)
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
	for i := range c.meta {
		if c.meta[i].valid {
			n++
		}
	}
	return n
}

// DirtyLines returns how many lines are valid and dirty.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.meta {
		if c.meta[i].valid && c.meta[i].dirty {
			n++
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
	c.line(uint32(set), int(way)).tag ^= 1 << (bit % perLine)
	c.syncMirror(uint32(set), int(way))
}

// TotalTagBits returns the size of the tag array in bits.
func (c *Cache) TotalTagBits() uint64 {
	return uint64(c.sets) * uint64(c.cfg.Ways) * uint64(c.TagBits())
}

// FlushInto overlays every valid dirty line onto dst without disturbing
// cache state or raising probe events. Machine snapshots use it to build a
// coherent DRAM image in a copy-on-write clone while the caches keep their
// (possibly dirty) content.
func (c *Cache) FlushInto(dst *DRAM) {
	for i := range c.meta {
		ln := &c.meta[i]
		if !ln.valid || !ln.dirty {
			continue
		}
		s, w := uint32(i/c.cfg.Ways), i%c.cfg.Ways
		addr := c.lineAddr(ln.tag, s)
		if dst.Contains(addr, c.cfg.LineBytes) {
			dst.write(addr, c.lineData(s, w))
		}
	}
}

// InvalidateRange drops (without writeback) every line whose address falls
// in [base, base+size). Used when a fresh application image is loaded into
// DRAM underneath a live cache hierarchy.
func (c *Cache) InvalidateRange(base, size uint32) {
	for i := range c.meta {
		ln := &c.meta[i]
		if !ln.valid {
			continue
		}
		s, w := uint32(i/c.cfg.Ways), i%c.cfg.Ways
		addr := c.lineAddr(ln.tag, s)
		if addr >= base && addr < base+size {
			if c.rec != nil {
				c.rec.evict(s, w, false)
			}
			if c.taintAt(s, w) {
				c.taintProbe.NoteCleanEvict(c.cfg.Name)
				c.ClearTaint()
			}
			ln.valid = false
			ln.dirty = false
			c.syncMirror(s, w)
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
	ln := c.line(set, way)
	return c.lineAddr(ln.tag, set), ln.valid, ln.dirty
}

// VisitValidLines calls fn for every valid line with its physical address
// and dirty state; used for cache-residency profiling.
func (c *Cache) VisitValidLines(fn func(addr uint32, dirty bool)) {
	for i := range c.meta {
		if ln := &c.meta[i]; ln.valid {
			fn(c.lineAddr(ln.tag, uint32(i/c.cfg.Ways)), ln.dirty)
		}
	}
}
