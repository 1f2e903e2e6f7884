package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"armsefi/internal/isa"
)

func smallCacheCfg(name string) CacheConfig {
	return CacheConfig{Name: name, SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, HitCycles: 1}
}

func newTestHierarchy(t *testing.T) (*System, *DRAM) {
	t.Helper()
	dram := NewDRAM(1 << 20)
	bus := NewBus(dram)
	sys := NewSystem(SystemConfig{
		L1I:        smallCacheCfg("l1i"),
		L1D:        smallCacheCfg("l1d"),
		L2:         CacheConfig{Name: "l2", SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, HitCycles: 4},
		TLBEntries: 8,
		VPNLimit:   256,
	}, bus)
	return sys, dram
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{},
		{Name: "x", SizeBytes: 1024, LineBytes: 24, Ways: 2},       // line not power of two
		{Name: "x", SizeBytes: 1000, LineBytes: 32, Ways: 2},       // size not divisible
		{Name: "x", SizeBytes: 32 * 2 * 3, LineBytes: 32, Ways: 2}, // sets not power of two
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid geometry", cfg)
		}
	}
	good := smallCacheCfg("ok")
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	if good.Sets() != 16 {
		t.Errorf("Sets() = %d, want 16", good.Sets())
	}
}

// TestCacheMirrorsMemory is the core data-path invariant: an arbitrary
// sequence of reads and writes through the cache hierarchy must be
// indistinguishable from direct access to a flat memory.
func TestCacheMirrorsMemory(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	l2 := NewCache(CacheConfig{Name: "l2", SizeBytes: 2 << 10, LineBytes: 32, Ways: 4, HitCycles: 1}, bus)
	l1 := NewCache(smallCacheCfg("l1"), l2)
	mirror := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		addr := uint32(rng.Intn(1 << 16))
		size := uint32(1 << rng.Intn(3))
		addr &^= size - 1
		if rng.Intn(2) == 0 {
			val := rng.Uint32()
			if _, ok := l1.Write(addr, size, val); !ok {
				t.Fatalf("write %#x failed", addr)
			}
			for b := uint32(0); b < size; b++ {
				mirror[addr+b] = byte(val >> (8 * b))
			}
		} else {
			got, _, ok := l1.Read(addr, size)
			if !ok {
				t.Fatalf("read %#x failed", addr)
			}
			var want uint32
			for b := uint32(0); b < size; b++ {
				want |= uint32(mirror[addr+b]) << (8 * b)
			}
			if got != want {
				t.Fatalf("read %#x size %d = %#x, want %#x (iteration %d)", addr, size, got, want, i)
			}
		}
	}
	// After flushing everything, DRAM must equal the mirror.
	l1.FlushAll()
	l2.FlushAll()
	for addr := uint32(0); addr < 1<<16; addr += 4 {
		if dram.Peek(addr) != uint32(mirror[addr])|uint32(mirror[addr+1])<<8|
			uint32(mirror[addr+2])<<16|uint32(mirror[addr+3])<<24 {
			t.Fatalf("post-flush mismatch at %#x", addr)
		}
	}
}

func TestCacheStatsAndEviction(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus) // 1KB, 2-way, 32B lines, 16 sets
	// Same set: addresses 32*16 apart. Three distinct tags evict the LRU.
	a0, a1, a2 := uint32(0), uint32(512), uint32(1024)
	c.Read(a0, 4)
	c.Read(a1, 4)
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
	c.Read(a0, 4) // hit, refreshes a0
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("hit counted as miss")
	}
	c.Read(a2, 4) // evicts a1 (LRU)
	c.Read(a0, 4) // still resident
	if got := c.Stats().Misses; got != 3 {
		t.Fatalf("misses = %d, want 3 (a0 must still be resident)", got)
	}
	c.Read(a1, 4) // must miss again
	if got := c.Stats().Misses; got != 4 {
		t.Fatalf("misses = %d, want 4", got)
	}
}

func TestCacheWritebackOnlyWhenDirty(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	dram.Poke(0, 0x11111111)
	c.Read(0, 4)
	c.Write(512, 4, 0xABCD) // same set, clean fill then dirty
	c.Read(1024, 4)         // evicts LRU (addr 0, clean: no writeback)
	if c.Stats().Writebacks != 0 {
		t.Fatalf("clean eviction wrote back")
	}
	c.Read(1536, 4) // evicts 512 (dirty)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("dirty eviction did not write back")
	}
	if dram.Peek(512) != 0xABCD {
		t.Fatalf("writeback lost data: %#x", dram.Peek(512))
	}
}

// TestFaultHealingOnCleanLine shows the masking mechanism the paper relies
// on: corrupting a clean line is healed by re-fetch after eviction.
func TestFaultHealingOnCleanLine(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	dram.Poke(0, 0x55AA55AA)
	c.Read(0, 4)
	// Find and flip a bit of the cached copy of address 0.
	flipped := false
	for bit := uint64(0); bit < c.SizeBits(); bit++ {
		c.FlipDataBit(bit)
		if v, _, _ := c.Read(0, 4); v != 0x55AA55AA {
			flipped = true
			break
		}
		c.FlipDataBit(bit) // undo
	}
	if !flipped {
		t.Fatal("could not corrupt the cached line")
	}
	// Evict it (clean!) by touching two more tags in set 0, then re-read:
	// the corruption must heal from DRAM.
	c.Read(512, 4)
	c.Read(1024, 4)
	if v, _, _ := c.Read(0, 4); v != 0x55AA55AA {
		t.Fatalf("clean corrupted line did not heal: %#x", v)
	}
	if dram.Peek(0) != 0x55AA55AA {
		t.Fatalf("DRAM corrupted by a clean line")
	}
}

// TestFaultPropagationOnDirtyLine shows the complementary mechanism: a
// corrupted dirty line writes the corruption back.
func TestFaultPropagationOnDirtyLine(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	c.Write(0, 4, 0x01020304)
	for bit := uint64(0); bit < c.SizeBits(); bit++ {
		c.FlipDataBit(bit)
		if v, _, _ := c.Read(0, 4); v != 0x01020304 {
			break
		}
		c.FlipDataBit(bit)
	}
	corrupted, _, _ := c.Read(0, 4)
	if corrupted == 0x01020304 {
		t.Fatal("could not corrupt the dirty line")
	}
	c.FlushAll()
	if dram.Peek(0) != corrupted {
		t.Fatalf("dirty corruption not written back: %#x vs %#x", dram.Peek(0), corrupted)
	}
}

func TestFlushInto(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	c.Write(64, 4, 0xFEEDFACE)
	if dram.Peek(64) == 0xFEEDFACE {
		t.Fatal("dirty data unexpectedly already in DRAM")
	}
	img := dram.Clone()
	c.FlushInto(img)
	if img.Peek(64) != 0xFEEDFACE {
		t.Fatalf("FlushInto missed the dirty line: %#x", img.Peek(64))
	}
	// FlushInto must alter neither the cache nor the clone's source.
	if c.DirtyLines() != 1 || dram.Peek(64) == 0xFEEDFACE {
		t.Fatal("FlushInto disturbed cache or source DRAM state")
	}
}

func TestInvalidateRange(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	c.Write(0, 4, 1)
	c.Write(4096, 4, 2)
	c.InvalidateRange(4096, 4096)
	if c.ValidLines() != 1 {
		t.Fatalf("valid lines = %d, want 1", c.ValidLines())
	}
	if v, _, _ := c.Read(0, 4); v != 1 {
		t.Fatal("in-range line was dropped")
	}
}

func TestCacheStateSaveRestore(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	c.Write(0, 4, 0xAAAA)
	st := c.SaveState()
	c.Write(0, 4, 0xBBBB)
	c.InvalidateAll()
	c.RestoreState(st)
	if v, _, _ := c.Read(0, 4); v != 0xAAAA {
		t.Fatalf("restored read = %#x", v)
	}
}

func TestTLBEntryBitLayout(t *testing.T) {
	e := TLBEntry{bits: packTLBEntry(0xABCDE, 0x12345, true, false)}
	if e.VPN() != 0xABCDE || e.PPN() != 0x12345 || !e.User() || e.Writable() || !e.Valid() {
		t.Fatalf("entry fields wrong: %+v", e)
	}
}

func TestTLBLookupInsertEvict(t *testing.T) {
	tlb := NewTLB("t", 2)
	tlb.Insert(1, 100, true, true)
	tlb.Insert(2, 200, true, true)
	if _, hit := tlb.Lookup(1); !hit {
		t.Fatal("miss on resident entry")
	}
	tlb.Insert(3, 300, true, true) // evicts LRU = vpn 2
	if _, hit := tlb.Lookup(2); hit {
		t.Fatal("evicted entry still hits")
	}
	if _, hit := tlb.Lookup(1); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if tlb.ValidEntries() != 2 {
		t.Fatalf("valid entries = %d", tlb.ValidEntries())
	}
}

func TestTLBTagFlipCausesMissOnly(t *testing.T) {
	tlb := NewTLB("t", 4)
	tlb.Insert(5, 500, true, true)
	// Flip a VPN tag bit of entry 0: lookups must miss, not mistranslate.
	tlb.FlipBit(0*TLBEntryBits + 1)
	if _, hit := tlb.Lookup(5); hit {
		t.Fatal("tag-corrupted entry still matched its old VPN")
	}
}

func TestTLBPPNFlipMistranslates(t *testing.T) {
	tlb := NewTLB("t", 4)
	tlb.Insert(5, 500, true, true)
	tlb.FlipPPNBit(0, 0)
	e, hit := tlb.Lookup(5)
	if !hit {
		t.Fatal("PPN flip should not unmap the entry")
	}
	if e.PPN() == 500 {
		t.Fatal("PPN unchanged after flip")
	}
}

func installPT(sys *System, dram *DRAM, ttbr uint32) {
	// Identity map the first 64 pages: kernel pages 0-3 (no user), user
	// pages 4+ (user, writable).
	for vpn := uint32(0); vpn < 64; vpn++ {
		pte := vpn<<PageShift | PTEValid | PTEWrite
		if vpn >= 4 {
			pte |= PTEUser
		}
		dram.Poke(ttbr+vpn*4, pte)
	}
	sys.SetTTBR(ttbr)
}

func TestTranslatePermissions(t *testing.T) {
	sys, dram := newTestHierarchy(t)
	installPT(sys, dram, 0x8000)
	// Kernel page from user mode: permission fault.
	if _, _, fault := sys.Load(0x1000, 4, isa.ModeUser); fault == nil || fault.Kind != FaultPermission {
		t.Errorf("user access to kernel page: %v", fault)
	}
	// Same access from SVC mode succeeds.
	if _, _, fault := sys.Load(0x1000, 4, isa.ModeSVC); fault != nil {
		t.Errorf("kernel access failed: %v", fault)
	}
	// User page works from user mode.
	if _, fault := sys.Store(0x5000, 4, 7, isa.ModeUser); fault != nil {
		t.Errorf("user store failed: %v", fault)
	}
	// Unmapped page.
	if _, _, fault := sys.Load(64*PageSize, 4, isa.ModeSVC); fault == nil || fault.Kind != FaultUnmapped {
		t.Errorf("unmapped access: %v", fault)
	}
	// Beyond the VPN limit.
	if _, _, fault := sys.Load(0xFFF0_0000, 4, isa.ModeSVC); fault == nil || fault.Kind != FaultUnmapped {
		t.Errorf("beyond VPN limit: %v", fault)
	}
}

func TestAlignmentFaults(t *testing.T) {
	sys, _ := newTestHierarchy(t)
	if _, _, fault := sys.Load(1, 4, isa.ModeSVC); fault == nil || fault.Kind != FaultAlignment {
		t.Errorf("unaligned word load: %v", fault)
	}
	if _, fault := sys.Store(3, 2, 0, isa.ModeSVC); fault == nil || fault.Kind != FaultAlignment {
		t.Errorf("unaligned half store: %v", fault)
	}
	if _, _, fault := sys.Load(1, 1, isa.ModeSVC); fault != nil {
		t.Errorf("byte access needs no alignment: %v", fault)
	}
	if _, _, fault := sys.FetchInstr(2, isa.ModeSVC); fault == nil || fault.Kind != FaultAlignment {
		t.Errorf("unaligned fetch: %v", fault)
	}
}

func TestMMIORouting(t *testing.T) {
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	dev := &stubDevice{}
	if err := bus.Map(0x2_0000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	if err := bus.Map(0x2_0800, 0x1000, dev); err == nil {
		t.Fatal("overlapping window accepted")
	}
	if err := bus.Map(0x100, 0x10, dev); err == nil {
		t.Fatal("window over DRAM accepted")
	}
	sys := NewSystem(SystemConfig{
		L1I: smallCacheCfg("l1i"), L1D: smallCacheCfg("l1d"),
		L2:         CacheConfig{Name: "l2", SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, HitCycles: 4},
		TLBEntries: 8,
	}, bus)
	if _, fault := sys.Store(0x2_0004, 4, 99, isa.ModeSVC); fault != nil {
		t.Fatalf("MMIO store: %v", fault)
	}
	if dev.last != 99 || dev.lastOff != 4 {
		t.Fatalf("device saw %d@%d", dev.last, dev.lastOff)
	}
	if v, _, fault := sys.Load(0x2_0004, 4, isa.ModeSVC); fault != nil || v != 42 {
		t.Fatalf("MMIO load = %d, %v", v, fault)
	}
	// Sub-word MMIO access faults.
	if _, _, fault := sys.Load(0x2_0004, 1, isa.ModeSVC); fault == nil {
		t.Fatal("byte MMIO access accepted")
	}
	// Bus error outside DRAM and windows.
	if _, _, fault := sys.Load(0x9_0000, 4, isa.ModeSVC); fault == nil || fault.Kind != FaultBusError {
		t.Fatalf("bus error: %v", fault)
	}
}

type stubDevice struct {
	last    uint32
	lastOff uint32
}

func (d *stubDevice) Name() string { return "stub" }
func (d *stubDevice) Read32(off uint32) uint32 {
	return 42
}
func (d *stubDevice) Write32(off, val uint32) { d.last, d.lastOff = val, off }

func TestPageWalkThroughCaches(t *testing.T) {
	sys, dram := newTestHierarchy(t)
	installPT(sys, dram, 0x8000)
	before := sys.WalkStats().Walks
	sys.Load(0x5000, 4, isa.ModeUser)
	sys.Load(0x5004, 4, isa.ModeUser) // TLB hit: no second walk
	if got := sys.WalkStats().Walks - before; got != 1 {
		t.Fatalf("walks = %d, want 1", got)
	}
	if sys.DTLB.Stats().Misses != 1 {
		t.Fatalf("dtlb misses = %d, want 1", sys.DTLB.Stats().Misses)
	}
}

func TestTLBCoherenceAfterTTBRChange(t *testing.T) {
	sys, dram := newTestHierarchy(t)
	installPT(sys, dram, 0x8000)
	sys.Load(0x5000, 4, isa.ModeUser)
	if sys.DTLB.ValidEntries() == 0 {
		t.Fatal("no TLB entry after load")
	}
	sys.SetTTBR(0xC000)
	if sys.DTLB.ValidEntries() != 0 {
		t.Fatal("TLB survived a TTBR change")
	}
}

func TestDRAMBounds(t *testing.T) {
	d := NewDRAM(1024)
	if d.LoadImage(1000, make([]byte, 100)) == nil {
		t.Fatal("out-of-bounds image accepted")
	}
	if d.PeekBytes(2000, 4) != nil {
		t.Fatal("out-of-bounds peek returned data")
	}
	buf := make([]byte, 32)
	if d.ReadLine(1020, buf) {
		t.Fatal("out-of-bounds line read succeeded")
	}
}

func TestFlipDataBitAddressing(t *testing.T) {
	// Property: FlipDataBit twice restores the original state.
	dram := NewDRAM(1 << 16)
	bus := NewBus(dram)
	c := NewCache(smallCacheCfg("c"), bus)
	c.Write(0, 4, 0x12345678)
	f := func(bit uint64) bool {
		bit %= c.SizeBits()
		c.FlipDataBit(bit)
		c.FlipDataBit(bit)
		v, _, _ := c.Read(0, 4)
		return v == 0x12345678
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
