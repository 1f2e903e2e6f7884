package mem

// PageShift is log2 of the page size (4 KB pages).
const PageShift = 12

// PageSize is the virtual-memory page size in bytes.
const PageSize = 1 << PageShift

// TLBEntry is one translation, stored with an explicit bit layout so that a
// fault can flip any individual architectural bit:
//
//	bits  0..19  VPN (virtual tag)
//	bits 20..39  PPN (physical page number)
//	bit  40      user-accessible
//	bit  41      writable
//	bit  42      valid
//
// The paper observes that flips in the virtual tag are almost always benign
// (they cause a miss and a page re-walk) while flips in the physical page or
// permission bits cause wrong translations and crashes; this layout lets the
// injector distinguish those regions.
type TLBEntry struct {
	bits uint64
	lru  uint64
}

// TLBEntryBits is the number of modeled bits per TLB entry.
const TLBEntryBits = 43

// Bit offsets within a TLB entry.
const (
	tlbVPNShift  = 0
	tlbPPNShift  = 20
	tlbUserBit   = 40
	tlbWriteBit  = 41
	tlbValidBit  = 42
	tlbFieldMask = 0xFFFFF // 20 bits
)

// VPN returns the virtual page number tag.
func (e TLBEntry) VPN() uint32 { return uint32(e.bits >> tlbVPNShift & tlbFieldMask) }

// PPN returns the physical page number.
func (e TLBEntry) PPN() uint32 { return uint32(e.bits >> tlbPPNShift & tlbFieldMask) }

// User reports whether user mode may access the page.
func (e TLBEntry) User() bool { return e.bits>>tlbUserBit&1 != 0 }

// Writable reports whether the page may be written.
func (e TLBEntry) Writable() bool { return e.bits>>tlbWriteBit&1 != 0 }

// Valid reports whether the entry holds a translation.
func (e TLBEntry) Valid() bool { return e.bits>>tlbValidBit&1 != 0 }

func packTLBEntry(vpn, ppn uint32, user, writable bool) uint64 {
	bits := uint64(vpn&tlbFieldMask)<<tlbVPNShift | uint64(ppn&tlbFieldMask)<<tlbPPNShift
	if user {
		bits |= 1 << tlbUserBit
	}
	if writable {
		bits |= 1 << tlbWriteBit
	}
	return bits | 1<<tlbValidBit
}

// TLBStats counts translation events.
type TLBStats struct {
	Lookups uint64
	Misses  uint64
}

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement.
type TLB struct {
	name    string
	entries []TLBEntry
	tick    uint64
	stats   TLBStats
	rec     *TLBLiveness

	// mru remembers the index of the last hit so the steady-state case —
	// the same page translated cycle after cycle — skips the associative
	// scan. The shortcut is taken only while dups is false: valid VPNs are
	// then unique, so the hinted entry IS the first match. Bit flips (and
	// pathological inserts) can alias two valid entries onto one tag; they
	// set dups and the scan's first-match order takes over.
	mru  int
	dups bool

	// Propagation provenance taint: the entry holding an injected bit.
	// A nil probe means no taint is tracked.
	taintProbe *Probe
	taintIdx   int
}

// NewTLB builds a TLB with the given number of entries.
func NewTLB(name string, entries int) *TLB {
	return &TLB{name: name, entries: make([]TLBEntry, entries)}
}

// Name returns the TLB's name ("itlb"/"dtlb").
func (t *TLB) Name() string { return t.name }

// Entries returns the number of entries.
func (t *TLB) Entries() int { return len(t.entries) }

// SizeBits returns the number of modeled bits, the Size term of the FIT
// conversion.
func (t *TLB) SizeBits() uint64 { return uint64(len(t.entries)) * TLBEntryBits }

// Stats returns the lookup/miss counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Lookup finds a valid entry whose VPN tag matches. A tag corrupted by a
// fault simply fails to match here — a miss, then a fresh page walk: the
// benign outcome the paper reports for virtual-tag flips.
func (t *TLB) Lookup(vpn uint32) (TLBEntry, bool) {
	t.stats.Lookups++
	// One mask-compare per entry: valid bit set AND the 20-bit VPN field
	// equal to vpn. A vpn wider than the field can never match, exactly
	// like the field-extraction comparison it replaces.
	const mask = uint64(1)<<tlbValidBit | uint64(tlbFieldMask)<<tlbVPNShift
	want := uint64(1)<<tlbValidBit | uint64(vpn)<<tlbVPNShift
	if !t.dups && t.entries[t.mru].bits&mask == want {
		return t.hit(t.mru), true
	}
	for i := range t.entries {
		if t.entries[i].bits&mask == want {
			t.mru = i
			return t.hit(i), true
		}
	}
	t.stats.Misses++
	return TLBEntry{}, false
}

// hit applies the bookkeeping every lookup hit performs regardless of how
// the entry was found: LRU touch, liveness read, taint consumption.
func (t *TLB) hit(i int) TLBEntry {
	t.tick++
	t.entries[i].lru = t.tick
	if t.rec != nil {
		t.rec.read(i)
	}
	if t.taintProbe != nil && i == t.taintIdx {
		// A hit on the corrupted entry consumes the (possibly wrong)
		// translation. A corrupted VPN tag never reaches here: it fails
		// to match, which is exactly the benign miss-and-rewalk the
		// paper reports.
		t.taintProbe.NoteRead(t.name)
	}
	return t.entries[i]
}

// Insert installs a translation, evicting the LRU entry.
func (t *TLB) Insert(vpn, ppn uint32, user, writable bool) {
	victim, bestTick := 0, ^uint64(0)
	for i := range t.entries {
		if !t.entries[i].Valid() {
			victim = i
			break
		}
		if t.entries[i].lru < bestTick {
			victim, bestTick = i, t.entries[i].lru
		}
	}
	// An insert normally follows a miss, so no surviving valid entry can
	// carry this tag; a caller that inserts an already-present tag would
	// break the VPN uniqueness the mru shortcut relies on — detect it and
	// fall back to first-match scans.
	for i := range t.entries {
		if i != victim && t.entries[i].Valid() && t.entries[i].VPN() == vpn {
			t.dups = true
		}
	}
	t.tick++
	t.entries[victim] = TLBEntry{bits: packTLBEntry(vpn, ppn, user, writable), lru: t.tick}
	if t.rec != nil {
		t.rec.insert(victim)
	}
	if t.taintProbe != nil && victim == t.taintIdx {
		// A fresh translation replaced the corrupted entry.
		t.taintProbe.NoteOverwrite(t.name)
		t.ClearTaint()
	}
}

// InvalidateAll clears every entry (TLB flush on reset).
func (t *TLB) InvalidateAll() {
	if p := t.taintProbe; p != nil {
		if t.entries[t.taintIdx].Valid() {
			p.NoteCleanEvict(t.name)
		} else {
			// The flush zeroes the corrupted bits of an invalid entry.
			p.NoteOverwrite(t.name)
		}
		t.ClearTaint()
	}
	for i := range t.entries {
		if t.rec != nil && t.entries[i].Valid() {
			t.rec.invalidate(i)
		}
		t.entries[i] = TLBEntry{}
	}
	t.stats = TLBStats{}
	// No valid entries remain, so the LRU clock can restart: cold restores
	// become bit-deterministic for the checkpoint-ladder fingerprints.
	t.tick = 0
	t.mru, t.dups = 0, false
}

// FlipBit inverts one bit of the TLB array, addressed linearly:
// entry = bit / TLBEntryBits, bit-in-entry = bit % TLBEntryBits.
func (t *TLB) FlipBit(bit uint64) {
	idx := bit / TLBEntryBits % uint64(len(t.entries))
	t.entries[idx].bits ^= 1 << (bit % TLBEntryBits)
	// A tag or valid flip can alias two valid entries onto one VPN, where
	// first-match order matters: disable the mru shortcut for this run.
	t.dups = true
}

// FlipPPNBit inverts a bit in the physical-page/permission region of a given
// entry — the harmful region per the paper's analysis. off selects among the
// 22 PPN+perm bits.
func (t *TLB) FlipPPNBit(entry int, off uint) {
	t.entries[entry].bits ^= 1 << (tlbPPNShift + off%23)
	// The span includes the valid bit: a flip can revive a stale entry
	// whose tag duplicates a live one, so the mru shortcut must yield to
	// first-match scans.
	t.dups = true
}

// ValidEntries counts valid translations.
func (t *TLB) ValidEntries() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].Valid() {
			n++
		}
	}
	return n
}

// TLBState is a deep copy of TLB content for machine snapshots.
type TLBState struct {
	entries []TLBEntry
	tick    uint64
	stats   TLBStats
	dups    bool
}

// SaveState deep-copies the TLB content.
func (t *TLB) SaveState() *TLBState {
	return &TLBState{
		entries: append([]TLBEntry(nil), t.entries...),
		tick:    t.tick,
		stats:   t.stats,
		dups:    t.dups,
	}
}

// RestoreState restores content captured by SaveState on a TLB of the same
// geometry.
func (t *TLB) RestoreState(st *TLBState) {
	copy(t.entries, st.entries)
	t.tick = st.tick
	t.stats = st.stats
	t.dups = st.dups
}

// MemoryBytes estimates the retained size of the saved content
// (checkpoint-ladder memory accounting).
func (st *TLBState) MemoryBytes() int { return len(st.entries)*16 + 24 }

// Physical-region bit span of a TLB entry: the PPN, permission, and valid
// bits (everything except the virtual tag). The paper's injections target
// this region; tag-bit injection is the near-zero-AVF ablation.
const (
	TLBPhysRegionStart = tlbPPNShift
	TLBPhysRegionBits  = TLBEntryBits - tlbPPNShift
)

// TLBModelBits is the number of physical-region bits per entry whose
// liveness intervals the recorder models: the PPN and permission bits.
// The valid bit (the last physical-region bit) toggles entry existence
// itself, so live-interval equivalence does not apply to it and
// WindowOf/EnumWindows decline it.
const TLBModelBits = tlbValidBit - tlbPPNShift

// EntryValid reports whether the indexed entry currently holds a
// translation (injection-context observability).
func (t *TLB) EntryValid(i int) bool { return t.entries[i].Valid() }

// TaintBit marks the entry holding a linearly-addressed bit (same
// addressing as FlipBit) as tainted and arms the probe. Called at flip
// time, before the flip lands, so liveness reflects the struck state —
// note a valid-bit flip can make a dead entry consumable afterwards.
func (t *TLB) TaintBit(bit uint64, p *Probe) {
	t.taintProbe = p
	t.taintIdx = int(bit / TLBEntryBits % uint64(len(t.entries)))
	p.Arm(t.entries[t.taintIdx].Valid())
}

// ClearTaint drops any tracked taint without emitting an event.
func (t *TLB) ClearTaint() {
	t.taintProbe = nil
	t.taintIdx = 0
}
