// State fingerprinting for the checkpoint ladder. The Hasher gives every
// machine structure a cheap way to fold its live content into a single
// 64-bit fingerprint; HashLive on caches and TLBs deliberately skips *dead*
// state (content of invalid lines/entries, which is overwritten before any
// read) so that a fault flipped into dead state still fingerprints equal to
// the golden run once the live state has re-converged.

package mem

import "encoding/binary"

// FNV-1a constants, applied word-at-a-time rather than byte-at-a-time so
// hashing a full DRAM image costs one multiply per 8 bytes.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hasher folds machine state into a 64-bit fingerprint. It is not
// cryptographic; it only needs to make accidental collisions between a
// diverged and a converged machine state astronomically unlikely.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher at the canonical initial state.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// Word mixes one 64-bit value.
func (s *Hasher) Word(v uint64) { s.h = (s.h ^ v) * fnvPrime }

// Word32 mixes one 32-bit value.
func (s *Hasher) Word32(v uint32) { s.Word(uint64(v)) }

// Bool mixes a boolean.
func (s *Hasher) Bool(b bool) {
	if b {
		s.Word(1)
	} else {
		s.Word(0)
	}
}

// Bytes lane seeds: arbitrary odd constants that give the four parallel
// accumulators distinct starting points.
const (
	laneSeed1 uint64 = 0x9E3779B97F4A7C15
	laneSeed2 uint64 = 0xC2B2AE3D27D4EB4F
	laneSeed3 uint64 = 0x165667B19E3779F9
)

// Bytes mixes a byte slice, length-prefixed so concatenations of different
// slices cannot alias. Large slices fold through four independent FNV
// lanes whose multiplies overlap in the pipeline — the serial
// word-at-a-time loop is latency-bound on one 64-bit multiply per 8
// bytes — and the lane sums fold back into the running state. The result
// is deterministic but not the serial FNV value; fingerprints are only
// ever compared against fingerprints computed the same way, so only
// collision resistance matters.
func (s *Hasher) Bytes(b []byte) {
	s.Word(uint64(len(b)))
	i := 0
	if len(b) >= 128 {
		h0, h1, h2, h3 := s.h, s.h^laneSeed1, s.h^laneSeed2, s.h^laneSeed3
		for ; i+32 <= len(b); i += 32 {
			h0 = (h0 ^ binary.LittleEndian.Uint64(b[i:])) * fnvPrime
			h1 = (h1 ^ binary.LittleEndian.Uint64(b[i+8:])) * fnvPrime
			h2 = (h2 ^ binary.LittleEndian.Uint64(b[i+16:])) * fnvPrime
			h3 = (h3 ^ binary.LittleEndian.Uint64(b[i+24:])) * fnvPrime
		}
		s.Word(h0)
		s.Word(h1)
		s.Word(h2)
		s.Word(h3)
	}
	for ; i+8 <= len(b); i += 8 {
		s.Word(binary.LittleEndian.Uint64(b[i:]))
	}
	if i < len(b) {
		var tail uint64
		for j := 0; i < len(b); i, j = i+1, j+8 {
			tail |= uint64(b[i]) << j
		}
		s.Word(tail)
	}
}

// Sum returns the fingerprint accumulated so far.
func (s *Hasher) Sum() uint64 { return s.h }

// HashLive mixes the cache's live state into h: a line-validity bitmap,
// then tag/dirty/lru/data of each valid line, then the LRU tick. Content
// of invalid lines is dead — fill() overwrites tag, dirty, and data before
// any read, and victim() returns invalid ways before consulting lru — so
// it is excluded, letting faults flipped into invalid lines fingerprint as
// converged. Event counters are excluded: they never feed back into the
// data path or the campaign Result.
func (c *Cache) HashLive(h *Hasher) {
	var bm uint64
	nbit := 0
	for s := range c.lines {
		for w := range c.lines[s] {
			if c.lines[s][w].valid {
				bm |= 1 << nbit
			}
			if nbit++; nbit == 64 {
				h.Word(bm)
				bm, nbit = 0, 0
			}
		}
	}
	if nbit > 0 {
		h.Word(bm)
	}
	for s := range c.lines {
		for w := range c.lines[s] {
			ln := &c.lines[s][w]
			if !ln.valid {
				continue
			}
			h.Word32(ln.tag)
			h.Bool(ln.dirty)
			h.Word(ln.lru)
			h.Bytes(ln.data)
		}
	}
	h.Word(c.tick)
}

// HashLive mixes the TLB's live state into h: an entry-validity bitmap,
// then bits/lru of each valid entry, then the LRU tick. Invalid entries'
// translation bits and lru are dead state (Insert fully overwrites the
// victim entry and prefers invalid victims unconditionally) and are
// excluded; a fault that flips the valid bit itself changes the bitmap and
// is caught.
func (t *TLB) HashLive(h *Hasher) {
	var bm uint64
	nbit := 0
	for i := range t.entries {
		if t.entries[i].Valid() {
			bm |= 1 << nbit
		}
		if nbit++; nbit == 64 {
			h.Word(bm)
			bm, nbit = 0, 0
		}
	}
	if nbit > 0 {
		h.Word(bm)
	}
	for i := range t.entries {
		if !t.entries[i].Valid() {
			continue
		}
		h.Word(t.entries[i].bits)
		h.Word(t.entries[i].lru)
	}
	h.Word(t.tick)
}
