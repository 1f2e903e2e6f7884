// Package mem models the memory system of the simulated SoC: a physical
// DRAM, a device bus, set-associative write-back caches that store real data
// bits, translation lookaside buffers, and a hardware page-table walker.
//
// Every array models its content bits explicitly, because the fault injector
// and the beam simulator corrupt *stored bits*, and the propagation physics
// the reproduced paper measures (clean corrupted lines healing on refill,
// dirty lines writing corruption back, TLB tag flips causing only misses)
// must emerge from the data paths rather than be scripted.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// PageBytes is the DRAM page size (4 KiB): the granule of copy-on-write
// sharing between machines, snapshots and ladder rungs, and of the
// per-page fingerprints the ladder's convergence check compares.
const PageBytes = 1 << pageShift

const pageShift = 12

// A page's bytes past the end of a DRAM whose size is not page-aligned
// stay zero: every write is bounds-checked. Pages are fingerprinted whole.
type page [PageBytes]byte

// zeroPage backs every page no one has written. It is never written.
var zeroPage = new(page)

// chunkPages is the span of one frozen page-table chunk, matching one
// word of the private-page bitmap.
const chunkPages = 64

// chunk is a frozen span of an image's page table with the fingerprint of
// every page. Images share the chunks in which no page was written
// between their freezes.
type chunk struct {
	pages [chunkPages]*page
	hash  [chunkPages]uint64
}

// DRAM is the physical memory backing the cache hierarchy. On the
// physical test board the DDR sits outside the irradiated chip area, so DRAM
// bits are never fault-injection targets — matching the paper's beam spot,
// which covered the SoC but not the on-board DDR.
//
// Memory is a table of 4 KiB pages. A page is either private to this DRAM
// (written since it was last frozen or restored) or shared: the all-zero
// page or a frozen page that images, and other DRAMs, may hold too. The
// first write to a shared page copies it into a private one taken from the
// DRAM's free list, so repeated restore-and-run cycles allocate nothing
// once the list has grown to a run's working set.
type DRAM struct {
	size  uint32
	pages []*page
	// hash holds each shared page's fingerprint; entries of private pages
	// are stale until the page is frozen.
	hash []uint64
	// own is the bitmap of private pages, one word per chunk span.
	own []uint64
	// chunks holds, per chunk span without private pages, the frozen
	// chunk its pages and hashes equal (nil when there is none).
	chunks []*chunk
	free   []*page

	// Propagation provenance taint: the byte a dirty writeback deposited
	// corruption into. DRAM is never a fault target itself (it sits
	// outside the beam spot); it only absorbs migrated taint.
	taintProbe *Probe
	taintAddr  uint32
}

// Image is an immutable DRAM content: a page table whose pages are never
// written again, with every page's fingerprint computed when it was
// frozen. Images are safe to share between machines on any goroutine.
type Image struct {
	size   uint32
	chunks []*chunk
}

// numPages returns the page count of a memory of size bytes.
func numPages(size uint32) int { return int((uint64(size) + PageBytes - 1) >> pageShift) }

// page returns page p of the image.
func (img *Image) page(p int) *page { return img.chunks[p/chunkPages].pages[p%chunkPages] }

// pageHash fingerprints one page with a fresh hasher state.
func pageHash(pg *page) uint64 {
	h := Hasher{h: fnvOffset}
	h.Bytes(pg[:])
	return h.Sum()
}

var zeroHash = pageHash(zeroPage)

// NewDRAM returns an all-zero physical memory of the given size in bytes.
func NewDRAM(size uint32) *DRAM {
	n := numPages(size)
	nc := (n + chunkPages - 1) / chunkPages
	d := &DRAM{
		size:   size,
		pages:  make([]*page, n),
		hash:   make([]uint64, n),
		own:    make([]uint64, nc),
		chunks: make([]*chunk, nc),
	}
	for p := range d.pages {
		d.pages[p] = zeroPage
		d.hash[p] = zeroHash
	}
	return d
}

// Size returns the memory size in bytes.
func (d *DRAM) Size() uint32 { return d.size }

// Contains reports whether the physical address range [addr, addr+n) is
// inside the DRAM.
func (d *DRAM) Contains(addr, n uint32) bool {
	return uint64(addr)+uint64(n) <= uint64(d.size)
}

func (d *DRAM) owned(p int) bool { return d.own[p/chunkPages]&(1<<(p%chunkPages)) != 0 }

// writable returns page p ready for writing, first copying a shared page
// into a private one.
func (d *DRAM) writable(p int) *page {
	if !d.owned(p) {
		var np *page
		if n := len(d.free); n > 0 {
			np, d.free = d.free[n-1], d.free[:n-1]
		} else {
			np = new(page)
		}
		*np = *d.pages[p]
		d.pages[p] = np
		d.own[p/chunkPages] |= 1 << (p % chunkPages)
	}
	return d.pages[p]
}

// read copies memory at addr into b; the range must be in bounds.
func (d *DRAM) read(addr uint32, b []byte) {
	for len(b) > 0 {
		n := copy(b, d.pages[addr>>pageShift][addr&(PageBytes-1):])
		b, addr = b[n:], addr+uint32(n)
	}
}

// write copies b into memory at addr; the range must be in bounds.
func (d *DRAM) write(addr uint32, b []byte) {
	for len(b) > 0 {
		n := copy(d.writable(int(addr >> pageShift))[addr&(PageBytes-1):], b)
		b, addr = b[n:], addr+uint32(n)
	}
}

// ReadLine copies an aligned line into buf. It reports false if the range
// falls outside physical memory.
func (d *DRAM) ReadLine(addr uint32, buf []byte) bool {
	if !d.Contains(addr, uint32(len(buf))) {
		return false
	}
	d.read(addr, buf)
	if d.taintProbe != nil && d.taintOverlaps(addr, uint32(len(buf))) {
		// A refill consumed the corrupted byte back into the hierarchy.
		d.taintProbe.NoteRead("dram")
	}
	return true
}

// taintOverlaps reports whether [addr, addr+n) covers the tainted byte.
func (d *DRAM) taintOverlaps(addr, n uint32) bool {
	return addr <= d.taintAddr && uint64(d.taintAddr) < uint64(addr)+uint64(n)
}

// overwritten ends a taint that a store over [addr, addr+n) replaced.
func (d *DRAM) overwritten(addr, n uint32) {
	if d.taintProbe != nil && d.taintOverlaps(addr, n) {
		d.taintProbe.NoteOverwrite("dram")
		d.ClearTaint()
	}
}

// WriteLine stores an aligned line from buf. It reports false if the range
// falls outside physical memory.
func (d *DRAM) WriteLine(addr uint32, buf []byte) bool {
	if !d.Contains(addr, uint32(len(buf))) {
		return false
	}
	d.write(addr, buf)
	d.overwritten(addr, uint32(len(buf)))
	return true
}

// LoadImage copies a program image into physical memory at load time,
// bypassing the cache hierarchy (as a DMA or boot loader would).
func (d *DRAM) LoadImage(addr uint32, image []byte) error {
	if !d.Contains(addr, uint32(len(image))) {
		return fmt.Errorf("mem: image of %d bytes at %#x exceeds DRAM size %#x",
			len(image), addr, d.size)
	}
	d.write(addr, image)
	d.overwritten(addr, uint32(len(image)))
	return nil
}

// Peek reads a 32-bit word directly from physical memory, bypassing caches.
// Harness-only: used by loaders and test oracles, never by simulated code.
func (d *DRAM) Peek(addr uint32) uint32 {
	if !d.Contains(addr, 4) {
		return 0
	}
	var b [4]byte
	d.read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Poke writes a 32-bit word directly to physical memory, bypassing caches.
func (d *DRAM) Poke(addr, val uint32) {
	if d.Contains(addr, 4) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], val)
		d.write(addr, b[:])
		d.overwritten(addr, 4)
	}
}

// PeekBytes copies n bytes starting at addr, bypassing caches.
func (d *DRAM) PeekBytes(addr, n uint32) []byte {
	if !d.Contains(addr, n) {
		return nil
	}
	out := make([]byte, n)
	d.read(addr, out)
	return out
}

// AbsorbTaint takes over a taint pushed out of the cache hierarchy by a
// dirty writeback of the corrupted line.
func (d *DRAM) AbsorbTaint(addr uint32, p *Probe) {
	d.taintProbe = p
	d.taintAddr = addr
}

// ClearTaint drops any tracked taint without emitting an event.
func (d *DRAM) ClearTaint() {
	d.taintProbe = nil
	d.taintAddr = 0
}

// Freeze returns the DRAM's current content as an immutable image. Every
// private page is frozen in place — fingerprinted and thereafter shared
// between the image and the DRAM — so freezing copies no page data. A
// page not written between two freezes is the same object in both images,
// and a chunk span without written pages is the same chunk.
func (d *DRAM) Freeze() *Image {
	img := &Image{size: d.size, chunks: make([]*chunk, len(d.chunks))}
	for c := range d.chunks {
		if d.own[c] != 0 || d.chunks[c] == nil {
			for w := d.own[c]; w != 0; w &= w - 1 {
				p := c*chunkPages + bits.TrailingZeros64(w)
				d.hash[p] = pageHash(d.pages[p])
			}
			d.own[c] = 0
			ch := new(chunk)
			copy(ch.pages[:], d.pages[c*chunkPages:])
			copy(ch.hash[:], d.hash[c*chunkPages:])
			d.chunks[c] = ch
		}
		img.chunks[c] = d.chunks[c]
	}
	return img
}

// Clone returns a new DRAM with the same content that shares every page
// with d copy-on-write (d's private pages are frozen first). The clone has
// no taint.
func (d *DRAM) Clone() *DRAM {
	img := d.Freeze()
	return &DRAM{
		size:   d.size,
		pages:  slices.Clone(d.pages),
		hash:   slices.Clone(d.hash),
		own:    make([]uint64, len(d.own)),
		chunks: img.chunks,
	}
}

// Restore sets memory from addr to the end to img's content by sharing
// img's pages; addr must be page-aligned and img must be of this DRAM's
// size. Private pages in the range go back to the free list. Like
// LoadImage, a restore over the tainted byte ends its taint.
func (d *DRAM) Restore(img *Image, addr uint32) {
	if img.size != d.size || addr%PageBytes != 0 || addr > d.size {
		panic(fmt.Sprintf("mem: restore of a %#x-byte image at %#x into a %#x-byte DRAM", img.size, addr, d.size))
	}
	first := int(addr >> pageShift)
	for c := first / chunkPages; c < len(img.chunks); c++ {
		lo := max(first-c*chunkPages, 0)
		w := d.own[c] &^ (1<<lo - 1)
		d.own[c] &^= w
		for ; w != 0; w &= w - 1 {
			d.free = append(d.free, d.pages[c*chunkPages+bits.TrailingZeros64(w)])
		}
		copy(d.pages[c*chunkPages+lo:], img.chunks[c].pages[lo:])
		copy(d.hash[c*chunkPages+lo:], img.chunks[c].hash[lo:])
		d.chunks[c] = nil
		if lo == 0 {
			d.chunks[c] = img.chunks[c]
		}
	}
	d.overwritten(addr, d.size-addr)
}

// PrivatePages returns how many private pages the DRAM holds, in use or
// on its free list.
func (d *DRAM) PrivatePages() int {
	n := len(d.free)
	for _, w := range d.own {
		n += bits.OnesCount64(w)
	}
	return n
}

// FoldHashes mixes the fingerprint of every page into h in page order:
// memoised for shared pages, computed for private ones.
func (d *DRAM) FoldHashes(h *Hasher) {
	for p, pg := range d.pages {
		if d.owned(p) {
			h.Word(pageHash(pg))
		} else {
			h.Word(d.hash[p])
		}
	}
}

// FoldHashes mixes the image's page fingerprints into h in page order,
// the same sequence DRAM.FoldHashes folds for equal content.
func (img *Image) FoldHashes(h *Hasher) {
	for p := range numPages(img.size) {
		h.Word(img.chunks[p/chunkPages].hash[p%chunkPages])
	}
}

// ConvergedPages reports whether the DRAM holds img's content, the
// ladder's rung-crossing check. A chunk span the DRAM shares with img
// unwritten is equal as a whole; otherwise a page that is the very object
// img holds is equal, and any other page is compared by fingerprint —
// memoised for shared pages, computed for the private pages written since
// the last restore.
func (d *DRAM) ConvergedPages(img *Image) bool {
	for c, ch := range img.chunks {
		if d.own[c] == 0 && d.chunks[c] == ch {
			continue
		}
		for p := c * chunkPages; p < min((c+1)*chunkPages, len(d.pages)); p++ {
			pg := d.pages[p]
			if pg == ch.pages[p%chunkPages] {
				continue
			}
			h := d.hash[p]
			if d.owned(p) {
				h = pageHash(pg)
			}
			if h != ch.hash[p%chunkPages] {
				return false
			}
		}
	}
	return true
}

// EqualPages reports whether the DRAM holds img's content by comparing
// every byte of every page, shared ones included — the exact reference
// ConvergedPages is cross-checked against.
func (d *DRAM) EqualPages(img *Image) bool {
	if img.size != d.size {
		return false
	}
	for p, pg := range d.pages {
		if !equalPage(pg, img.page(p)) {
			return false
		}
	}
	return true
}

// equalPage compares two pages word by word. It deliberately has no
// same-page shortcut, so it also checks a page two tables share.
func equalPage(x, y *page) bool {
	for i := 0; i < PageBytes; i += 8 {
		if binary.LittleEndian.Uint64(x[i:]) != binary.LittleEndian.Uint64(y[i:]) {
			return false
		}
	}
	return true
}

// ImageBytes accounts the memory a set of images retains beyond base.
// owned counts every page and chunk base does not hold once, plus each
// image's chunk directory; shared counts the page bytes the images
// reference more than once, which a copy per image would have duplicated.
func ImageBytes(base *Image, imgs []*Image) (owned, shared int) {
	inBase := make(map[any]bool)
	for _, ch := range base.chunks {
		inBase[ch] = true
		for _, pg := range ch.pages {
			inBase[pg] = true
		}
	}
	counted := make(map[any]bool)
	for _, img := range imgs {
		owned += len(img.chunks) * 8
		for _, ch := range img.chunks {
			if !inBase[ch] && !counted[ch] {
				counted[ch] = true
				owned += chunkPages * 16
			}
			for _, pg := range ch.pages {
				switch {
				case pg == nil || inBase[pg]:
				case counted[pg]:
					shared += PageBytes
				default:
					counted[pg] = true
					owned += PageBytes
				}
			}
		}
	}
	return owned, shared
}
