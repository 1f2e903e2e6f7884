// Liveness recorder for the ACE-style campaign pre-filter: during one
// instrumented golden replay it records, per cache way / TLB entry, the
// chronological event stream (covering reads, covering writes, refills,
// evictions) and the generation history (which value occupied the slot
// over which stamp interval, and at what physical address). A planned
// injection can then be classified *without simulating it*: if the first
// post-flip event covering the struck byte is a write, the fault is
// provably overwritten; a clean eviction provably discards it; no event at
// all leaves it latent; an invalid slot at the flip instant was never
// read. Any covering read — or a dirty eviction, which migrates the
// corruption down the hierarchy — leaves the verdict undecided and the
// fault goes to the simulator.
//
// Stamps are the replay loop's top-of-loop cycle values (the loop sets
// *clock before each StepCycle), the same instants at which the injection
// loops fire inject(). An injection at cycle F therefore lands before
// every event stamped >= F and after every event stamped < F, exactly;
// no guard band is needed.
//
// The same recorder keeps each slot's current value lifetime and running
// totals for ACE lifetime analysis (ACE), so the pre-filter, dedup,
// exhaustive sweeps and the ACE ablation all read one set of hooks.
package mem

import (
	"fmt"
	"math"
	"unsafe"
)

// LiveVerdict is the pre-filter's classification of one planned injection.
type LiveVerdict uint8

// Pre-filter verdicts. All decided verdicts imply a Masked outcome: the
// corrupted bits provably never influence execution, so the run is
// byte-identical to golden.
const (
	// LiveUndecided: the analysis cannot prove masking (a covering read,
	// a dirty eviction, an unpredictable bit, or event overflow); the
	// fault must be simulated.
	LiveUndecided LiveVerdict = iota
	// LiveNeverRead: the slot held no valid content at the flip instant.
	LiveNeverRead
	// LiveOverwritten: a write (or full refill) replaced the corrupted
	// byte before anything read it.
	LiveOverwritten
	// LiveEvictedClean: the corrupted line/entry was dropped without
	// writeback before any covering read.
	LiveEvictedClean
	// LiveLatent: no event ever touched the corrupted byte again; the
	// corruption sits unread in the array when the run ends.
	LiveLatent
)

// LiveQuery is the result of classifying one bit/cycle against the log.
type LiveQuery struct {
	Verdict LiveVerdict
	// Valid reports whether the slot held live content at the flip
	// instant (mirrors fault.Context.LineValid).
	Valid bool
	// LineAddr is the physical address of the struck line's content at
	// the flip instant (caches only, valid slots only) — the input to
	// kernel-ownership classification.
	LineAddr uint32
}

// Event kinds of the per-way stream.
const (
	liveRead       uint8 = iota // covering read of [lo, hi)
	liveWrite                   // covering write of [lo, hi)
	liveFill                    // full refill: a new generation begins
	liveEvictClean              // content dropped without writeback
	liveEvictDirty              // dirty writeback: content migrated below
)

// liveEvent is one recorded event in 8 bytes: the stamp, the covered
// range [lo, hi) within the slot — bytes of a cache line, bits of a TLB
// entry, [0, width) for whole-slot events — and the kind. Stamps fit 32
// bits because replay budgets stay below 2^32 cycles (the recorder
// rejects a larger stamp rather than truncate it), and ranges fit 8 bits
// because slots are at most 255 units wide (AttachLiveness checks).
type liveEvent struct {
	stamp  uint32
	lo, hi uint8
	kind   uint8
}

// liveGen is one value generation of a slot: content installed at stamp
// birth (-1 for content already present when recording started), cleared
// at stamp death (MaxUint64 while still live), holding the line at addr.
// next chains a way's generations in the recorder's gens slab (1-based,
// 0 ends the chain); it fills what would otherwise be padding.
type liveGen struct {
	birth int64
	death uint64
	addr  uint32
	next  int32
}

// liveEventCap bounds the per-way count of logical notes — one per
// recorder call, however many share a coalesced event. A way hot enough
// to overflow it is read near-continuously, so its faults would classify
// undecided anyway; overflow just makes that conservative answer
// explicit. Counting notes rather than stored events keeps the overflow
// point independent of the encoding.
const liveEventCap = 16384

// liveBlockLen events plus the chain link fill one 256-byte liveBlock.
const liveBlockLen = 31

// liveBlock is one fixed-size block of a way's event stream. A way's
// blocks are chained in recording order and every block but the last is
// full, so an event is written once and never copied: the stream grows a
// block at a time instead of by slice doubling.
type liveBlock struct {
	ev   [liveBlockLen]liveEvent
	next *liveBlock
}

// liveWay is the recording of one cache way or TLB entry, created the
// first time the way is touched: its event stream and generations for
// the pre-filter, and its current value's lifetime for ACE analysis.
type liveWay struct {
	head, tail *liveBlock
	tailLen    int32 // events used in tail
	notes      int32
	// gens and lastGen are the 1-based indexes of the way's first and
	// last generation in the recorder's gens slab; 0 means none.
	gens, lastGen int32
	life          valueLife
	overflow      bool
}

// untouchedWay is the recording of every way no event or generation ever
// reached. Queries only read it.
var untouchedWay liveWay

// blockEvents returns the used events of b, one of w's blocks.
func (w *liveWay) blockEvents(b *liveBlock) []liveEvent {
	if b == w.tail {
		return b.ev[:w.tailLen]
	}
	return b.ev[:]
}

// note records one event. A note that continues the previous event — same
// stamp and kind, range starting where the previous one ends, as when
// several instructions are fetched from one line in a cycle — widens that
// event instead of appending: the two ranges are disjoint, so every byte
// sees exactly the covering events it saw before, in the same order.
func (w *liveWay) note(stamp uint32, kind, lo, hi uint8) {
	if w.overflow {
		return
	}
	if w.notes >= liveEventCap {
		w.overflow = true
		return
	}
	w.notes++
	if w.tail != nil {
		if p := &w.tail.ev[w.tailLen-1]; p.stamp == stamp && p.kind == kind && p.hi == lo {
			p.hi = hi
			return
		}
	}
	if w.tail == nil || w.tailLen == liveBlockLen {
		b := new(liveBlock)
		if w.tail == nil {
			w.head = b
		} else {
			w.tail.next = b
		}
		w.tail, w.tailLen = b, 0
	}
	w.tail.ev[w.tailLen] = liveEvent{stamp: stamp, kind: kind, lo: lo, hi: hi}
	w.tailLen++
}

// open begins a generation of w at stamp, holding the line at addr.
func (r *liveRecorder) open(w *liveWay, stamp int64, addr uint32) {
	r.gens = append(r.gens, liveGen{birth: stamp, death: math.MaxUint64, addr: addr})
	g := int32(len(r.gens))
	if w.lastGen == 0 {
		w.gens = g
	} else {
		r.gens[w.lastGen-1].next = g
	}
	w.lastGen = g
}

// close clears w's live generation, if any, at stamp.
func (r *liveRecorder) close(w *liveWay, stamp uint64) {
	if w.lastGen != 0 && r.gens[w.lastGen-1].death == math.MaxUint64 {
		r.gens[w.lastGen-1].death = stamp
	}
}

// query classifies a flip of byteOff at cycle flipAt against way w's
// recording. Shared by the cache and TLB paths: only the event kinds each
// recorder emits differ.
func (r *liveRecorder) query(w *liveWay, byteOff uint8, flipAt uint64) LiveQuery {
	if w.overflow {
		return LiveQuery{}
	}
	// The generation live at the flip: the last one born strictly before
	// it (births never decrease along the chain), cleared at or after it
	// (a clearing event stamped == flipAt runs after the injection fires,
	// so the flip still hits this generation).
	var gen *liveGen
	for g := w.gens; g != 0 && r.gens[g-1].birth < int64(flipAt); g = r.gens[g-1].next {
		gen = &r.gens[g-1]
	}
	if gen == nil || flipAt > gen.death {
		return LiveQuery{Verdict: LiveNeverRead}
	}
	q := LiveQuery{Valid: true, LineAddr: gen.addr}
	// Stamps never decrease along the stream, so a block whose last event
	// precedes the flip is skipped whole.
	for b := w.head; b != nil; b = b.next {
		evs := w.blockEvents(b)
		if uint64(evs[len(evs)-1].stamp) < flipAt {
			continue
		}
		for _, ev := range evs {
			if uint64(ev.stamp) < flipAt {
				continue
			}
			covers := ev.lo <= byteOff && byteOff < ev.hi
			switch ev.kind {
			case liveRead:
				if covers {
					return q // consumed: undecided
				}
			case liveWrite:
				if covers {
					q.Verdict = LiveOverwritten
					return q
				}
			case liveFill:
				// The generation's own death event always precedes its
				// slot's refill, so this is defensive — and a full refill
				// overwrites every byte regardless.
				q.Verdict = LiveOverwritten
				return q
			case liveEvictClean:
				q.Verdict = LiveEvictedClean
				return q
			case liveEvictDirty:
				return q // corruption migrated below: undecided
			}
		}
	}
	q.Verdict = LiveLatent
	return q
}

// windowOf returns the index of the inter-event quiescent window that
// contains flipAt for byteOff — the count of covering events stamped
// strictly before the flip, so two flips share a window exactly when no
// covering event separates them — plus an FNV-1a fingerprint of the
// site's full covering-event sequence and generation history. Two flips
// of the same site in the same window are provably equivalent: the
// machine evolves identically up to the first covering event at or after
// either flip, at which instant its state is golden-plus-flip in both
// cases. ok is false when the recording overflowed (window membership
// would be a guess).
func (r *liveRecorder) windowOf(w *liveWay, byteOff uint8, flipAt uint64) (win int, sig uint64, ok bool) {
	if w.overflow {
		return 0, 0, false
	}
	sig = sigInit
	for b := w.head; b != nil; b = b.next {
		for _, ev := range w.blockEvents(b) {
			if ev.lo > byteOff || byteOff >= ev.hi {
				continue
			}
			if uint64(ev.stamp) < flipAt {
				win++
			}
			sig = sigFold(sig, uint64(ev.stamp), uint64(ev.kind)<<16|uint64(ev.lo)<<8|uint64(ev.hi))
		}
	}
	for g := w.gens; g != 0; g = r.gens[g-1].next {
		gen := &r.gens[g-1]
		sig = sigFold(sig, uint64(gen.birth), gen.death^uint64(gen.addr))
	}
	return win, sig, true
}

// enumWindows walks byteOff's quiescent windows over cycles [0, maxCycle):
// fn receives each non-empty window's first cycle and width in cycles.
// The windows tile [0, maxCycle) exactly (zero-width windows from
// duplicate event stamps are skipped), so Σ width == maxCycle — the
// invariant an exhaustive sweep's population-exact accounting rests on.
// ok is false (fn never called) when the recording overflowed.
func (w *liveWay) enumWindows(byteOff uint8, maxCycle uint64, fn func(start, width uint64)) bool {
	if w.overflow {
		return false
	}
	start := uint64(0)
	for b := w.head; b != nil; b = b.next {
		for _, ev := range w.blockEvents(b) {
			if ev.lo > byteOff || byteOff >= ev.hi {
				continue
			}
			// The window ends at the event's stamp inclusive: an injection
			// at cycle F lands before every event stamped >= F, so flips at
			// the stamp itself still precede the event.
			end := uint64(ev.stamp) + 1
			if end > maxCycle {
				end = maxCycle
			}
			if end > start {
				fn(start, end-start)
				start = end
			}
		}
	}
	if maxCycle > start {
		fn(start, maxCycle-start)
	}
	return true
}

// sigInit/sigFold are the FNV-1a fingerprint the window signature uses.
const sigInit = uint64(1469598103934665603)

func sigFold(h, a, b uint64) uint64 {
	for _, v := range [2]uint64{a, b} {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// --- Value lifetimes (ACE) -------------------------------------------------

// valueLife is the ACE lifetime of a way's current value: installed at
// stamp birth (by a fill, or dirty by a write) and, once read, last read
// at stamp lastRead. Granularity is the whole slot: every bit of a line
// or entry shares its value's lifetime, the classic coarse ACE
// approximation that over-estimates AVF against injection because not
// every bit of a live line is consumed (Wang et al. [28]).
type valueLife struct {
	valid, dirty, read bool
	birth, lastRead    uint32
}

// span is the ACE residency of the value if it ended at stamp now: to
// departure for dirty data leaving by writeback (the data still mattered
// until it reached the level below), otherwise to its last consuming
// read, and nothing for a value never read. A flip lands before every
// event stamped at or after its cycle, so a value born at stamp b and
// last read at stamp r is exposed to flips at cycles (b, r]: r-b cycles.
func (l *valueLife) span(now uint64, writeback bool) uint64 {
	switch {
	case writeback && l.dirty:
		return now - uint64(l.birth)
	case l.read:
		return uint64(l.lastRead - l.birth)
	}
	return 0
}

// --- Shared recorder -------------------------------------------------------

// liveRecorder is the state CacheLiveness and TLBLiveness share: the
// stamp clock, a dense per-way index into the recordings of the ways
// touched so far, the generations slab, and the running ACE totals. Most
// ways of a large cache are never touched by a short run, so a way costs
// four bytes until its first event or generation. The totals and the
// per-way value lifetimes are kept whatever the event cap, so ACE
// estimates never depend on overflow.
type liveRecorder struct {
	clock *uint64
	idx   []int32   // per way or entry: 1-based index into recs, 0 = untouched
	recs  []liveWay // recordings, in order of first touch
	gens  []liveGen // every way's generations, chained per way

	aceCycles   uint64 // entry-cycles of closed values' ACE residency
	valuesTotal uint64 // values installed
	valuesRead  uint64 // values read at least once
}

// touch returns way i's recording, creating it on first touch. The
// pointer is valid until another way's first touch.
func (r *liveRecorder) touch(i int) *liveWay {
	if j := r.idx[i]; j != 0 {
		return &r.recs[j-1]
	}
	r.recs = append(r.recs, liveWay{})
	r.idx[i] = int32(len(r.recs))
	return &r.recs[len(r.recs)-1]
}

// find returns way i's recording for a query: untouchedWay if the way
// was never touched.
func (r *liveRecorder) find(i uint64) *liveWay {
	if j := r.idx[i]; j != 0 {
		return &r.recs[j-1]
	}
	return &untouchedWay
}

// now returns the current event stamp. Stamps are stored in 32 bits; a
// clock at or beyond 2^32 is a replay longer than any recording budget
// allows, and is rejected rather than truncated into a wrong verdict.
func (r *liveRecorder) now() uint32 {
	s := *r.clock
	if s > math.MaxUint32 {
		panic(fmt.Sprintf("mem: liveness stamp %d does not fit the 32-bit event stamp", s))
	}
	return uint32(s)
}

// install begins a new value in w at stamp now, ending the previous one
// without writeback.
func (r *liveRecorder) install(w *liveWay, now uint32, dirty bool) {
	r.retire(w, now, false)
	w.life = valueLife{valid: true, dirty: dirty, birth: now}
	r.valuesTotal++
}

// consume marks a read of w's current value at stamp now.
func (r *liveRecorder) consume(w *liveWay, now uint32) {
	l := &w.life
	if !l.valid {
		return
	}
	if !l.read {
		r.valuesRead++
	}
	l.read = true
	l.lastRead = now
}

// retire ends w's current value at stamp now; writeback reports whether
// it leaves by writeback.
func (r *liveRecorder) retire(w *liveWay, now uint32, writeback bool) {
	if w.life.valid {
		r.aceCycles += w.life.span(uint64(now), writeback)
		w.life.valid = false
	}
}

// ACE returns the structure's ACE lifetime estimate over a recorded run
// of the given length in cycles: the AVF (ACE entry-cycles over entries x
// cycles) and how many values were installed and read at least once.
// Values still live at the end are closed at the run's last cycle, dirty
// ones as if written back — they would be. The recording is not modified,
// so a shared log can be asked repeatedly.
func (r *liveRecorder) ACE(cycles uint64) (avf float64, total, read uint64) {
	if cycles == 0 || len(r.idx) == 0 {
		return 0, r.valuesTotal, r.valuesRead
	}
	ace := r.aceCycles
	for i := range r.recs { // an untouched way holds no value
		if l := &r.recs[i].life; l.valid {
			ace += l.span(cycles-1, l.dirty)
		}
	}
	return float64(ace) / (float64(cycles) * float64(len(r.idx))), r.valuesTotal, r.valuesRead
}

// Overflowed reports how many ways hit the event cap (their faults
// classify undecided).
func (r *liveRecorder) Overflowed() int {
	n := 0
	for i := range r.recs {
		if r.recs[i].overflow {
			n++
		}
	}
	return n
}

// EventBytes reports the memory the recording's event streams retain:
// every allocated event block, whole.
func (r *liveRecorder) EventBytes() int {
	n := 0
	for i := range r.recs {
		for b := r.recs[i].head; b != nil; b = b.next {
			n++
		}
	}
	return n * int(unsafe.Sizeof(liveBlock{}))
}

// --- Cache recorder --------------------------------------------------------

// CacheLiveness records the liveness log of one cache during a golden
// replay. Attach with AttachLiveness before the replay, detach after; the
// recorder is then an immutable query structure shared by all workers.
type CacheLiveness struct {
	liveRecorder
	nways     int
	sets      uint64
	lineBytes uint64
}

// AttachLiveness instruments the cache with liveness recording. clock
// points at the replay loop's top-of-loop cycle stamp. Content valid at
// attach time is seeded as generations with birth -1 (live from before
// recording started); ACE value lifetimes start with the recording.
func (c *Cache) AttachLiveness(clock *uint64) *CacheLiveness {
	if c.cfg.LineBytes > math.MaxUint8 {
		panic(fmt.Sprintf("mem: cache %q: %d-byte lines exceed the liveness event range", c.cfg.Name, c.cfg.LineBytes))
	}
	r := &CacheLiveness{
		liveRecorder: liveRecorder{clock: clock, idx: make([]int32, len(c.meta))},
		nways:        c.cfg.Ways,
		sets:         uint64(c.sets),
		lineBytes:    uint64(c.cfg.LineBytes),
	}
	for i := range c.meta {
		if ln := &c.meta[i]; ln.valid {
			r.open(r.touch(i), -1, c.lineAddr(ln.tag, uint32(i/c.cfg.Ways)))
		}
	}
	c.rec = r
	return r
}

// DetachLiveness stops recording; the returned log stays queryable.
func (c *Cache) DetachLiveness() { c.rec = nil }

func (r *CacheLiveness) evict(set uint32, way int, dirty bool) {
	w := r.touch(int(set)*r.nways + way)
	now := r.now()
	kind := liveEvictClean
	if dirty {
		kind = liveEvictDirty
	}
	w.note(now, kind, 0, uint8(r.lineBytes))
	r.close(w, uint64(now))
	r.retire(w, now, dirty)
}

func (r *CacheLiveness) fill(set uint32, way int, addr uint32) {
	w := r.touch(int(set)*r.nways + way)
	now := r.now()
	w.note(now, liveFill, 0, uint8(r.lineBytes))
	r.open(w, int64(now), addr)
	r.install(w, now, false)
}

func (r *CacheLiveness) access(set uint32, way int, off, n uint32, write bool) {
	w := r.touch(int(set)*r.nways + way)
	now := r.now()
	if write {
		w.note(now, liveWrite, uint8(off), uint8(off+n))
		r.install(w, now, true)
		return
	}
	w.note(now, liveRead, uint8(off), uint8(off+n))
	r.consume(w, now)
}

// way resolves a data-array bit (FlipDataBit addressing) to its way's
// recording and the struck byte's offset within the line.
func (r *CacheLiveness) way(bit uint64) (*liveWay, uint8) {
	lineBits := r.lineBytes * 8
	wayBits := lineBits * uint64(r.nways)
	set := bit / wayBits % r.sets
	way := bit % wayBits / lineBits
	return r.find(set*uint64(r.nways) + way), uint8(bit % lineBits / 8)
}

// QueryBit classifies a data-array flip (FlipDataBit addressing) at cycle
// flipAt against the recording.
func (r *CacheLiveness) QueryBit(bit uint64, flipAt uint64) LiveQuery {
	w, off := r.way(bit)
	return r.query(w, off, flipAt)
}

// WindowOf returns the quiescent-window index containing flipAt for a
// data-array bit, with the struck byte's covering-event fingerprint. Two
// flips of the same bit are outcome-equivalent iff they share (window,
// sig); ok is false when the way's recording overflowed.
func (r *CacheLiveness) WindowOf(bit, flipAt uint64) (window int, sig uint64, ok bool) {
	w, off := r.way(bit)
	return r.windowOf(w, off, flipAt)
}

// EnumWindows walks a data-array bit's quiescent windows over cycles
// [0, maxCycle): fn receives each window's first cycle and width, tiling
// the cycle range exactly. Returns false (fn never called) when the
// way's recording overflowed.
func (r *CacheLiveness) EnumWindows(bit, maxCycle uint64, fn func(start, width uint64)) bool {
	w, off := r.way(bit)
	return w.enumWindows(off, maxCycle, fn)
}

// --- TLB recorder ----------------------------------------------------------

// TLBLiveness records the liveness log of one TLB during a golden replay.
type TLBLiveness struct {
	liveRecorder
	entries uint64
}

// AttachLiveness instruments the TLB with liveness recording; see
// Cache.AttachLiveness.
func (t *TLB) AttachLiveness(clock *uint64) *TLBLiveness {
	r := &TLBLiveness{
		liveRecorder: liveRecorder{clock: clock, idx: make([]int32, len(t.entries))},
		entries:      uint64(len(t.entries)),
	}
	for i := range t.entries {
		if t.entries[i].Valid() {
			r.open(r.touch(i), -1, 0)
		}
	}
	t.rec = r
	return r
}

// DetachLiveness stops recording; the returned log stays queryable.
func (t *TLB) DetachLiveness() { t.rec = nil }

func (r *TLBLiveness) read(i int) {
	w := r.touch(i)
	now := r.now()
	w.note(now, liveRead, 0, TLBEntryBits)
	r.consume(w, now)
}

func (r *TLBLiveness) insert(i int) {
	w := r.touch(i)
	now := r.now()
	w.note(now, liveFill, 0, TLBEntryBits)
	r.close(w, uint64(now))
	r.open(w, int64(now), 0)
	r.install(w, now, false)
}

func (r *TLBLiveness) invalidate(i int) {
	w := r.touch(i)
	now := r.now()
	w.note(now, liveEvictClean, 0, TLBEntryBits)
	r.close(w, uint64(now))
	r.retire(w, now, false)
}

// entry resolves a TLB bit (FlipBit addressing) to its entry's recording
// and the bit's offset within the entry. ok is false for bits outside the
// physical page and permission fields (PPN, user, writable): only those
// are predictable. They never influence Lookup's match — a hit that
// returns the entry is a consuming read the scan sees. Flips of the VPN
// field or the valid bit change *which* entries match, which the event
// stream cannot model.
func (r *TLBLiveness) entry(bit uint64) (w *liveWay, b uint8, ok bool) {
	off := bit % TLBEntryBits
	if off < tlbPPNShift || off >= tlbValidBit {
		return nil, 0, false
	}
	return r.find(bit / TLBEntryBits % r.entries), uint8(off), true
}

// QueryBit classifies a TLB flip (FlipBit addressing) at cycle flipAt.
// Flips outside the physical-page/permission region classify undecided
// unconditionally (see entry).
func (r *TLBLiveness) QueryBit(bit uint64, flipAt uint64) LiveQuery {
	w, b, ok := r.entry(bit)
	if !ok {
		return LiveQuery{}
	}
	q := r.query(w, b, flipAt)
	q.LineAddr = 0 // TLB entries carry no owning line address
	return q
}

// WindowOf returns the quiescent-window index containing flipAt for a
// TLB entry bit, with the entry's covering-event fingerprint. ok is false
// for bits outside the physical-page/permission region and for overflowed
// recordings.
func (r *TLBLiveness) WindowOf(bit, flipAt uint64) (window int, sig uint64, ok bool) {
	w, b, ok := r.entry(bit)
	if !ok {
		return 0, 0, false
	}
	return r.windowOf(w, b, flipAt)
}

// EnumWindows walks a TLB entry bit's quiescent windows over cycles
// [0, maxCycle); see CacheLiveness.EnumWindows. False for unmodelable
// bits (outside the physical-page/permission region) and overflowed
// recordings.
func (r *TLBLiveness) EnumWindows(bit, maxCycle uint64, fn func(start, width uint64)) bool {
	w, b, ok := r.entry(bit)
	if !ok {
		return false
	}
	return w.enumWindows(b, maxCycle, fn)
}
