package mem

import (
	"math"
	"reflect"
	"testing"
)

// wayEvents collects a way's recorded event stream across its blocks.
func wayEvents(w *liveWay) []liveEvent {
	var evs []liveEvent
	for b := w.head; b != nil; b = b.next {
		evs = append(evs, w.blockEvents(b)...)
	}
	return evs
}

// enumOf collects a bit's quiescent windows as (start, width) pairs.
func enumOf(t *testing.T, enum func(uint64, uint64, func(start, width uint64)) bool, bit, maxCycle uint64) [][2]uint64 {
	t.Helper()
	var wins [][2]uint64
	if !enum(bit, maxCycle, func(start, width uint64) {
		wins = append(wins, [2]uint64{start, width})
	}) {
		t.Fatalf("bit %d: enumeration refused (overflow?)", bit)
	}
	return wins
}

// TestWindowTiling pins the invariant exhaustive sweeps rest on: a bit's
// quiescent windows tile [0, maxCycle) exactly — contiguous, non-empty,
// summing to maxCycle — and every cycle inside one enumerated window maps
// to the same WindowOf index, with distinct windows mapping to distinct
// indices.
func TestWindowTiling(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 10
	c.Read(0, 4)
	now = 20
	c.Read(0, 4)
	now = 20
	c.Write(0, 4, 9) // duplicate stamp: the zero-width window must vanish
	now = 35
	c.Read(0, 4)

	const maxCycle = 50
	wins := enumOf(t, r.EnumWindows, way0bit, maxCycle)
	if len(wins) == 0 {
		t.Fatal("no windows")
	}
	var sum, next uint64
	seen := make(map[int]bool)
	var firstSig uint64
	for _, w := range wins {
		start, width := w[0], w[1]
		if start != next {
			t.Fatalf("window at %d: want contiguous start %d", start, next)
		}
		if width == 0 {
			t.Fatalf("zero-width window at %d", start)
		}
		next = start + width
		sum += width
		// Every cycle of the window shares one index; the windows are
		// distinct.
		win0, sig, ok := r.WindowOf(way0bit, start)
		if !ok {
			t.Fatalf("WindowOf refused cycle %d", start)
		}
		winEnd, _, _ := r.WindowOf(way0bit, start+width-1)
		if win0 != winEnd {
			t.Fatalf("window [%d,%d): index %d at start, %d at end", start, start+width, win0, winEnd)
		}
		if seen[win0] {
			t.Fatalf("window index %d repeats", win0)
		}
		seen[win0] = true
		if firstSig == 0 {
			firstSig = sig
		} else if sig != firstSig {
			t.Fatalf("signature varies across a single site: %x vs %x", sig, firstSig)
		}
	}
	if sum != maxCycle {
		t.Fatalf("windows sum to %d, want %d", sum, maxCycle)
	}
	// The three distinct covering stamps split [0,50) into 4 windows; the
	// duplicate stamp at 20 must not contribute an empty one.
	if len(wins) != 4 {
		t.Fatalf("got %d windows, want 4: %v", len(wins), wins)
	}
}

// TestWindowUntouchedWay: a slot no event ever touches has a single
// full-range window — the whole run is one quiescent interval. (A fill
// covers every byte of its line, so only event-free ways qualify.)
func TestWindowUntouchedWay(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 10
	c.Read(0, 4) // fills set 0 only

	const set1bit = 2 * 32 * 8 // set 1, way 0, byte 0: untouched
	wins := enumOf(t, r.EnumWindows, set1bit, 100)
	if len(wins) != 1 || wins[0] != [2]uint64{0, 100} {
		t.Fatalf("untouched way windows = %v, want one full-range window", wins)
	}
}

// TestWindowOverflow: once a way's event recording overflows, window
// queries and enumeration refuse rather than guess.
func TestWindowOverflow(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	for i := 0; i <= liveEventCap; i++ {
		now = uint64(i)
		c.Read(0, 4)
	}
	if r.Overflowed() == 0 {
		t.Fatal("no overflow after exceeding the event cap")
	}
	if _, _, ok := r.WindowOf(way0bit, 5); ok {
		t.Fatal("WindowOf answered on an overflowed way")
	}
	if ok := r.EnumWindows(way0bit, 10, func(start, width uint64) {
		t.Fatal("EnumWindows visited a window on an overflowed way")
	}); ok {
		t.Fatal("EnumWindows reported ok on an overflowed way")
	}
}

// TestTLBWindowRestriction: TLB window queries answer only inside the
// modelable physical-region bits — VPN-tag and valid-bit flips change
// which entries match, so they carry no quiescent-window structure.
func TestTLBWindowRestriction(t *testing.T) {
	var now uint64
	tlb := NewTLB("t", 4)
	r := tlb.AttachLiveness(&now)
	now = 10
	tlb.Insert(1, 0x40, true, false)
	now = 20
	if _, ok := tlb.Lookup(1); !ok {
		t.Fatal("lookup missed")
	}

	entry := -1
	for i := 0; i < tlb.Entries(); i++ {
		if tlb.EntryValid(i) {
			entry = i
		}
	}
	base := uint64(entry) * TLBEntryBits
	vpnBit := base
	ppnBit := base + TLBPhysRegionStart
	validBit := base + TLBPhysRegionStart + TLBModelBits

	if _, _, ok := r.WindowOf(vpnBit, 5); ok {
		t.Fatal("WindowOf answered for a VPN-tag bit")
	}
	if _, _, ok := r.WindowOf(validBit, 5); ok {
		t.Fatal("WindowOf answered for the valid bit")
	}
	if _, _, ok := r.WindowOf(ppnBit, 5); !ok {
		t.Fatal("WindowOf refused a modelable PPN bit")
	}
	if r.EnumWindows(vpnBit, 50, func(start, width uint64) {}) {
		t.Fatal("EnumWindows enumerated a VPN-tag bit")
	}
	wins := enumOf(t, r.EnumWindows, ppnBit, 50)
	var sum uint64
	for _, w := range wins {
		sum += w[1]
	}
	if sum != 50 {
		t.Fatalf("PPN windows sum to %d, want 50", sum)
	}
	// The lookup at 20 consumes the whole entry: flips before and after it
	// fall in different windows.
	w1, _, _ := r.WindowOf(ppnBit, 15)
	w2, _, _ := r.WindowOf(ppnBit, 25)
	if w1 == w2 {
		t.Fatalf("flips across a consuming lookup share window %d", w1)
	}
}

// TestLivenessCoalescing: a note continuing the previous event (same
// stamp and kind, range starting at its end) widens it, and nothing else
// merges — a gap, a repeat of the same range, another kind or another
// stamp each keep their own event, so every byte sees exactly its own
// covering events.
func TestLivenessCoalescing(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 5
	c.Read(24, 4) // fill [0,32) + read [24,28)
	now = 10
	c.Read(0, 4)
	c.Read(4, 4)      // continues [0,4): one event [0,8)
	c.Read(16, 4)     // gap at [8,16): a new event
	c.Read(16, 4)     // repeat of the same range: a new event
	c.Write(20, 4, 1) // contiguous but another kind: a new event
	now = 11
	c.Read(24, 4) // contiguous with nothing at stamp 11: a new event

	w := r.find(0)
	want := []liveEvent{
		{stamp: 5, lo: 0, hi: 32, kind: liveFill},
		{stamp: 5, lo: 24, hi: 28, kind: liveRead},
		{stamp: 10, lo: 0, hi: 8, kind: liveRead},
		{stamp: 10, lo: 16, hi: 20, kind: liveRead},
		{stamp: 10, lo: 16, hi: 20, kind: liveRead},
		{stamp: 10, lo: 20, hi: 24, kind: liveWrite},
		{stamp: 11, lo: 24, hi: 28, kind: liveRead},
	}
	if got := wayEvents(w); !reflect.DeepEqual(got, want) || w.notes != 8 {
		t.Fatalf("events %+v (notes %d), want %+v (notes 8)", got, w.notes, want)
	}
	// Byte 12 lies in the gap: no read covers it, the flip stays latent
	// and no event separates flips at 6 and 11.
	const byte12 = 12 * 8
	if q := r.QueryBit(byte12, 6); q.Verdict != LiveLatent {
		t.Fatalf("gap byte: %+v", q)
	}
	w6, _, _ := r.WindowOf(byte12, 6)
	w11, _, _ := r.WindowOf(byte12, 11)
	if w6 != w11 {
		t.Fatalf("gap byte windows %d and %d, want one", w6, w11)
	}
	// Byte 17 sees both reads at 10: two covering events, one window
	// between them of width zero, which the tiling skips.
	if w, _, _ := r.WindowOf(17*8, 11); w != 3 {
		t.Fatalf("byte 17 window at 11 = %d, want 3 (fill + two reads)", w)
	}
	if got := enumOf(t, r.EnumWindows, 17*8, 20); !reflect.DeepEqual(got, [][2]uint64{{0, 6}, {6, 5}, {11, 9}}) {
		t.Fatalf("byte 17 windows %v", got)
	}
}

// TestOverflowCountsNotes: the event cap counts recorder notes, not
// stored events, so coalescing never moves the overflow point.
func TestOverflowCountsNotes(t *testing.T) {
	var now uint64
	c, r := liveCache(&now)
	now = 1
	// The fill is the first note; runs of eight reads coalesce to one
	// event each.
	for i := 0; i < liveEventCap-1; i++ {
		c.Read(uint32(i%8)*4, 4)
	}
	if n := len(wayEvents(r.find(0))); r.Overflowed() != 0 || n != 1+liveEventCap/8 {
		t.Fatalf("overflowed %d, %d events after %d notes", r.Overflowed(), n, liveEventCap)
	}
	c.Read(0, 4)
	if r.Overflowed() != 1 {
		t.Fatal("no overflow after exceeding the note cap")
	}
}

// TestLivenessStampRange: a stamp that does not fit the 32-bit event
// stamp is rejected, never truncated.
func TestLivenessStampRange(t *testing.T) {
	now := uint64(math.MaxUint32)
	c, r := liveCache(&now)
	c.Read(0, 4)
	if got := wayEvents(r.find(0))[1].stamp; got != math.MaxUint32 {
		t.Fatalf("stamp %d, want %d", got, uint32(math.MaxUint32))
	}
	now++
	defer func() {
		if recover() == nil {
			t.Fatal("a 2^32 stamp was accepted")
		}
	}()
	c.Read(0, 4)
}
