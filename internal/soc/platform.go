package soc

import (
	"fmt"

	"armsefi/internal/asm"
	"armsefi/internal/kernel"
	"armsefi/internal/mem"
)

// Physical memory map of the platform. Virtual addresses are identity-mapped
// by the kernel's page table; protection comes from PTE permission bits.
const (
	// DRAMBytes is the physical memory size.
	DRAMBytes uint32 = 4 << 20

	// KernelTextBase holds the vector table and kernel code (read-only pages).
	KernelTextBase uint32 = 0x0000_0000
	// KernelDataBase holds kernel bookkeeping data.
	KernelDataBase uint32 = 0x0000_4000
	// PageTableBase holds the single-level page table (4096 entries, 16 KB).
	PageTableBase uint32 = 0x0000_C000
	// PTEntries is the number of page-table entries (VA space of 16 MB).
	PTEntries uint32 = 4096
	// SVCStackTop is the kernel-mode stack (grows down).
	SVCStackTop uint32 = 0x0001_1000
	// IRQStackTop is the interrupt-mode stack (grows down).
	IRQStackTop uint32 = 0x0001_2000

	// UserTextBase is the fixed application entry region.
	UserTextBase uint32 = 0x0010_0000
	// UserDataBase is the application data region.
	UserDataBase uint32 = 0x0020_0000
	// UserStackTop is the application stack (grows down).
	UserStackTop uint32 = 0x003F_0000

	// MMIOBase is the device window, just above DRAM.
	MMIOBase   uint32 = 0x0040_0000
	UARTBase   uint32 = MMIOBase + 0x0000
	TimerBase  uint32 = MMIOBase + 0x1000
	SysCtlBase uint32 = MMIOBase + 0x2000
	mmioBytes  uint32 = 0x1_0000
)

// Page ranges derived from the map, used to build the kernel page table.
const (
	kTextVPNEnd  = 0x0000_4000 >> mem.PageShift // 4 read-only kernel pages
	kDataVPNEnd  = 0x0001_2000 >> mem.PageShift // kernel data, page table, stacks
	userVPNStart = UserTextBase >> mem.PageShift
	userVPNEnd   = UserStackTop >> mem.PageShift
	mmioVPNStart = MMIOBase >> mem.PageShift
	mmioVPNEnd   = (MMIOBase + mmioBytes) >> mem.PageShift
)

// UserAsmConfig returns the assembler configuration for user programs on
// this platform.
func UserAsmConfig() asm.Config {
	return asm.Config{TextBase: UserTextBase, DataBase: UserDataBase}
}

// ModelKind selects which CPU model a machine instantiates.
type ModelKind uint8

// CPU model kinds, mirroring gem5's atomic and detailed O3 models.
const (
	ModelAtomic ModelKind = 1 + iota
	ModelDetailed
)

// String returns the model name.
func (m ModelKind) String() string {
	if m == ModelAtomic {
		return "atomic"
	}
	return "detailed"
}

// ParseModel parses a CPU model name as the -model flags spell it.
func ParseModel(s string) (ModelKind, error) {
	switch s {
	case "atomic":
		return ModelAtomic, nil
	case "detailed":
		return ModelDetailed, nil
	}
	return 0, fmt.Errorf("unknown model %q (atomic|detailed)", s)
}

// Config describes one platform preset (Table II of the paper).
type Config struct {
	Name          string
	Platform      string // "Zynq 7000" or "VExpress"
	KernelVersion string // "3.14" (board) or "3.13" (model)
	Mem           mem.SystemConfig
	TimerPeriod   uint32 // scheduler tick period in cycles
	NumTasks      uint32 // kernel task-table entries touched per tick
	TaskStructLen uint32

	// Detailed-model front-end parameters; the two presets differ slightly,
	// standing in for the documented design differences between the gem5
	// model and the real Cortex-A9 (most visible in the TLB, per [71]).
	BTBEntries       int
	PredictorEntries int

	// SecondCorePresent records that the physical SoC has a second
	// (disabled) core inside the beam spot; it contributes only to the
	// unmodelled-area overlay of the beam simulator.
	SecondCorePresent bool

	// CheckpointEvery is the golden-run checkpoint-ladder rung spacing in
	// cycles, and MaxCheckpoints caps how many rungs a ladder may hold
	// (the effective spacing grows to fit). Campaign engines inherit
	// these when their own Config leaves the knobs unset; zero disables
	// the ladder at the engine level.
	CheckpointEvery uint64
	MaxCheckpoints  int
}

// Checkpoint-ladder defaults shared by both presets: rungs every 150k
// cycles keep the fingerprint cost (one pass over DRAM and the arrays per
// rung) well under a percent of golden runtime at paper workload lengths,
// and 64 rungs bound the ladder even for long golden runs.
const (
	DefaultCheckpointEvery uint64 = 150_000
	DefaultMaxCheckpoints  int    = 64
)

// cacheDefaults returns the A9 cache geometry of Table II.
func cacheDefaults() (l1i, l1d, l2 mem.CacheConfig) {
	l1i = mem.CacheConfig{Name: "l1i", SizeBytes: 32 << 10, LineBytes: 32, Ways: 4, HitCycles: 1}
	l1d = mem.CacheConfig{Name: "l1d", SizeBytes: 32 << 10, LineBytes: 32, Ways: 4, HitCycles: 1}
	l2 = mem.CacheConfig{Name: "l2", SizeBytes: 512 << 10, LineBytes: 32, Ways: 8, HitCycles: 8}
	return l1i, l1d, l2
}

// PresetZynq models the physical board half of Table II: the Cortex-A9 in
// the Xilinx Zynq-7000 (one core enabled), Linux 3.14.
func PresetZynq() Config {
	l1i, l1d, l2 := cacheDefaults()
	return Config{
		Name:          "zynq",
		Platform:      "Zynq 7000",
		KernelVersion: "3.14",
		Mem: mem.SystemConfig{
			L1I: l1i, L1D: l1d, L2: l2,
			TLBEntries: 64,
			VPNLimit:   PTEntries,
		},
		TimerPeriod:       20_000,
		NumTasks:          32,
		TaskStructLen:     64,
		BTBEntries:        512,
		PredictorEntries:  1024,
		SecondCorePresent: true,
		CheckpointEvery:   DefaultCheckpointEvery,
		MaxCheckpoints:    DefaultMaxCheckpoints,
	}
}

// PresetModel models the simulator half of Table II: the gem5 VExpress
// Cortex-A9 lookalike, Linux 3.13. It differs from the board in TLB
// organisation and predictor sizing — the deliberate model/hardware gap
// whose effect Section IV-D quantifies with performance counters.
func PresetModel() Config {
	l1i, l1d, l2 := cacheDefaults()
	return Config{
		Name:          "gem5",
		Platform:      "VExpress",
		KernelVersion: "3.13",
		Mem: mem.SystemConfig{
			L1I: l1i, L1D: l1d, L2: l2,
			TLBEntries: 32,
			VPNLimit:   PTEntries,
		},
		TimerPeriod:       20_000,
		NumTasks:          30, // kernel 3.13 runs a slightly different task set
		TaskStructLen:     64,
		BTBEntries:        256,
		PredictorEntries:  512,
		SecondCorePresent: false,
		CheckpointEvery:   DefaultCheckpointEvery,
		MaxCheckpoints:    DefaultMaxCheckpoints,
	}
}

// kernelParams derives the kernel build parameters for this platform.
func (c Config) kernelParams() kernel.Params {
	return kernel.Params{
		TextBase:      KernelTextBase,
		DataBase:      KernelDataBase,
		PageTable:     PageTableBase,
		PTEntries:     PTEntries,
		SVCStackTop:   SVCStackTop,
		IRQStackTop:   IRQStackTop,
		AppEntry:      UserTextBase,
		UserVPNStart:  userVPNStart,
		UserVPNEnd:    userVPNEnd,
		KTextVPNEnd:   kTextVPNEnd,
		KDataVPNEnd:   kDataVPNEnd,
		MMIOVPNStart:  mmioVPNStart,
		MMIOVPNEnd:    mmioVPNEnd,
		UARTBase:      UARTBase,
		TimerBase:     TimerBase,
		SysCtlBase:    SysCtlBase,
		TimerPeriod:   c.TimerPeriod,
		NumTasks:      c.NumTasks,
		TaskStructLen: c.TaskStructLen,
	}
}
