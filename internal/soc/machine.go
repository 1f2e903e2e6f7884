package soc

import (
	"fmt"

	"armsefi/internal/asm"
	"armsefi/internal/cpu"
	"armsefi/internal/isa"
	"armsefi/internal/kernel"
	"armsefi/internal/mem"
)

// archCore is the contract both CPU models satisfy: the generic Core
// interface plus architectural snapshot support and mid-run
// micro-architectural checkpointing for the checkpoint ladder.
type archCore interface {
	cpu.Core
	SaveArch() cpu.ArchState
	LoadArch(cpu.ArchState)
	SaveMicro() *cpu.MicroState
	LoadMicro(*cpu.MicroState)
	HashMicro(*mem.Hasher)
}

// Outcome is the machine-level result of a run.
type Outcome uint8

// Run outcomes.
const (
	// OutcomePowerOff means the kernel wrote the power-off port: a clean
	// exit, an application kill, or a kernel panic, distinguished by the
	// exit code.
	OutcomePowerOff Outcome = 1 + iota
	// OutcomeFatal means the core reached an unrecoverable hardware state.
	OutcomeFatal
	// OutcomeTimeout means the cycle budget expired (a hang).
	OutcomeTimeout
)

// String returns a short outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomePowerOff:
		return "poweroff"
	case OutcomeFatal:
		return "fatal"
	case OutcomeTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Result summarises one run of the machine.
type Result struct {
	Outcome       Outcome
	ExitCode      uint32 // value written to the power-off port
	Cycles        uint64 // cycles consumed by this run
	Instructions  uint64
	Output        []byte // UART bytes emitted during this run
	Beats         uint64 // kernel heartbeats during this run
	AppAlive      uint64 // application alive() calls during this run
	LastBeatCycle uint64 // core cycle of the last kernel heartbeat
}

// CleanExit reports a normal exit(0).
func (r Result) CleanExit() bool { return r.Outcome == OutcomePowerOff && r.ExitCode == 0 }

// KernelPanic reports that the kernel detected a privileged-mode fault.
func (r Result) KernelPanic() bool {
	return r.Outcome == OutcomePowerOff && r.ExitCode == kernel.PanicCode
}

// AppKilled reports that the kernel killed the application on a user-mode
// exception, returning the vector that caused it.
func (r Result) AppKilled() (isa.Vector, bool) {
	if r.Outcome != OutcomePowerOff {
		return 0, false
	}
	if r.ExitCode >= kernel.ExitSignalBase && r.ExitCode < kernel.ExitSignalBase+isa.NumVectors {
		return isa.Vector(r.ExitCode - kernel.ExitSignalBase), true
	}
	return 0, false
}

// Machine is one complete simulated platform instance: CPU core, memory
// system, devices, and the kernel image.
type Machine struct {
	Cfg    Config
	Model  ModelKind
	DRAM   *mem.DRAM
	Bus    *mem.Bus
	Mem    *mem.System
	UART   *UART
	Timer  *Timer
	SysCtl *SysCtl
	Kernel *asm.Program

	core archCore
	app  *asm.Program
}

// NewMachine builds a platform from a preset with the chosen CPU model and
// loads the kernel image into DRAM.
func NewMachine(cfg Config, model ModelKind) (*Machine, error) {
	dram := mem.NewDRAM(DRAMBytes)
	bus := mem.NewBus(dram)
	m := &Machine{
		Cfg:    cfg,
		Model:  model,
		DRAM:   dram,
		Bus:    bus,
		UART:   &UART{},
		Timer:  &Timer{},
		SysCtl: &SysCtl{},
	}
	for _, d := range []struct {
		base uint32
		dev  mem.Device
	}{
		{UARTBase, m.UART},
		{TimerBase, m.Timer},
		{SysCtlBase, m.SysCtl},
	} {
		if err := bus.Map(d.base, 0x1000, d.dev); err != nil {
			return nil, fmt.Errorf("soc: %w", err)
		}
	}
	m.Mem = mem.NewSystem(cfg.Mem, bus)
	switch model {
	case ModelAtomic:
		m.core = cpu.NewAtomic(m.Mem, m.Timer)
	case ModelDetailed:
		m.core = cpu.NewDetailed(m.Mem, m.Timer, cpu.DetailedConfig{
			BTBEntries:       cfg.BTBEntries,
			PredictorEntries: cfg.PredictorEntries,
		})
	default:
		return nil, fmt.Errorf("soc: unknown CPU model %d", model)
	}
	k, err := kernel.Build(cfg.kernelParams())
	if err != nil {
		return nil, fmt.Errorf("soc: building kernel: %w", err)
	}
	m.Kernel = k
	if err := m.loadProgram(k); err != nil {
		return nil, err
	}
	return m, nil
}

// Core returns the CPU core.
func (m *Machine) Core() cpu.Core { return m.core }

// App returns the loaded application, if any.
func (m *Machine) App() *asm.Program { return m.app }

func (m *Machine) loadProgram(p *asm.Program) error {
	if err := m.DRAM.LoadImage(p.TextBase, p.Text); err != nil {
		return fmt.Errorf("soc: loading %s text: %w", p.Name, err)
	}
	if len(p.Data) > 0 {
		if err := m.DRAM.LoadImage(p.DataBase, p.Data); err != nil {
			return fmt.Errorf("soc: loading %s data: %w", p.Name, err)
		}
	}
	return nil
}

// LoadApp places a user program image in memory. The program must be
// assembled for the platform's user bases and its entry must be the fixed
// application entry point the kernel jumps to.
func (m *Machine) LoadApp(p *asm.Program) error {
	if p.TextBase != UserTextBase || p.DataBase != UserDataBase {
		return fmt.Errorf("soc: app %q assembled for %#x/%#x, platform wants %#x/%#x",
			p.Name, p.TextBase, p.DataBase, UserTextBase, UserDataBase)
	}
	if p.Entry != UserTextBase {
		return fmt.Errorf("soc: app %q entry %#x must be the text base %#x (_start first)",
			p.Name, p.Entry, UserTextBase)
	}
	if err := m.loadProgram(p); err != nil {
		return err
	}
	m.app = p
	return nil
}

// PokeBytes writes harness-provided bytes (workload inputs) directly into
// physical memory, as the experiment host loads inputs before a run.
func (m *Machine) PokeBytes(addr uint32, data []byte) error {
	return m.DRAM.LoadImage(addr, data)
}

// PeekBytes reads physical memory for harness-side verification.
func (m *Machine) PeekBytes(addr, n uint32) []byte { return m.DRAM.PeekBytes(addr, n) }

// Boot resets the core and runs the kernel until it drops to user mode at
// the application entry. It returns an error if boot does not converge
// within maxCycles.
func (m *Machine) Boot(maxCycles uint64) error {
	m.core.Reset()
	for m.core.Cycles() < maxCycles {
		if m.core.Mode() == isa.ModeUser && m.core.PC() == UserTextBase {
			return nil
		}
		if m.core.Fatal() {
			return fmt.Errorf("soc: core fatal during boot at pc=%#x", m.core.PC())
		}
		if m.SysCtl.Halted() {
			return fmt.Errorf("soc: kernel powered off during boot (code %#x)", m.SysCtl.ExitCode())
		}
		d := m.core.StepCycle()
		m.Timer.Tick(d)
	}
	return fmt.Errorf("soc: boot did not reach user mode in %d cycles", maxCycles)
}

// Run executes until power-off, a fatal core state, or the cycle budget
// expires. It may be called repeatedly; each call observes only its own
// UART output and heartbeat deltas.
func (m *Machine) Run(maxCycles uint64) Result {
	return m.RunWithInjection(maxCycles, 0, nil)
}

// RunWithInjection runs like Run but invokes inject once when the run has
// consumed injectAt cycles — the single-event upset of a fault-injection or
// beam experiment. A nil inject runs undisturbed.
func (m *Machine) RunWithInjection(maxCycles, injectAt uint64, inject func()) Result {
	startCycles := m.core.Cycles()
	startInstrs := m.core.Instructions()
	uartStart := m.UART.Len()
	beatsStart := m.SysCtl.Beats()
	aliveStart := m.SysCtl.AppAlive()
	lastBeats := m.SysCtl.Beats()
	lastBeatCycle := startCycles

	res := Result{}
	for {
		if m.SysCtl.Halted() {
			res.Outcome = OutcomePowerOff
			res.ExitCode = m.SysCtl.ExitCode()
			break
		}
		if m.core.Fatal() {
			res.Outcome = OutcomeFatal
			break
		}
		if m.core.Cycles()-startCycles >= maxCycles {
			res.Outcome = OutcomeTimeout
			break
		}
		if inject != nil && m.core.Cycles()-startCycles >= injectAt {
			inject()
			inject = nil
		}
		d := m.core.StepCycle()
		m.Timer.Tick(d)
		if b := m.SysCtl.Beats(); b != lastBeats {
			lastBeats = b
			lastBeatCycle = m.core.Cycles()
		}
	}
	if inject != nil {
		// The run ended before the injection time (e.g., a strike scheduled
		// in idle tail time); apply it so component state still carries it.
		inject()
	}
	res.Cycles = m.core.Cycles() - startCycles
	res.Instructions = m.core.Instructions() - startInstrs
	res.Output = m.UART.Tail(uartStart)
	res.Beats = m.SysCtl.Beats() - beatsStart
	res.AppAlive = m.SysCtl.AppAlive() - aliveStart
	res.LastBeatCycle = lastBeatCycle - startCycles
	return res
}

// Snapshot is a complete machine state: DRAM, architectural CPU state,
// cache and TLB content, and device state. It plays the role gem5
// checkpoints play in the paper's methodology. Its DRAM is a frozen page
// image, shared copy-on-write with the machine that saved it and with
// every machine that restores it.
type Snapshot struct {
	arch   cpu.ArchState
	dram   *mem.Image
	l1i    *mem.CacheState
	l1d    *mem.CacheState
	l2     *mem.CacheState
	itlb   *mem.TLBState
	dtlb   *mem.TLBState
	timer  timerState
	sysctl sysCtlState
	uart   []byte
}

// SaveSnapshot captures the full machine state. The core must be at a
// quiescent point (e.g., right after Boot).
func (m *Machine) SaveSnapshot() *Snapshot {
	// Build a coherent DRAM image: overlay dirty lines (L2 first, then the
	// newer L1D) onto a copy-on-write clone so a cold restore — which
	// invalidates the caches — does not lose write-back data such as the
	// kernel's page table. The machine's own DRAM keeps its content.
	dram := m.DRAM.Clone()
	m.Mem.L2.FlushInto(dram)
	m.Mem.L1D.FlushInto(dram)
	return &Snapshot{
		arch:   m.core.SaveArch(),
		dram:   dram.Freeze(),
		l1i:    m.Mem.L1I.SaveState(),
		l1d:    m.Mem.L1D.SaveState(),
		l2:     m.Mem.L2.SaveState(),
		itlb:   m.Mem.ITLB.SaveState(),
		dtlb:   m.Mem.DTLB.SaveState(),
		timer:  m.Timer.save(),
		sysctl: m.SysCtl.save(),
		uart:   m.UART.Output(),
	}
}

// RestoreSnapshot brings the machine back to a saved state. With warm=true
// the cache and TLB content is restored too (a live board that kept
// running); with warm=false caches and TLBs come back invalidated, exactly
// as the paper describes GeFIN resetting the caches on every injection run.
func (m *Machine) RestoreSnapshot(s *Snapshot, warm bool) {
	m.DRAM.Restore(s.dram, 0)
	if warm {
		m.Mem.L1I.RestoreState(s.l1i)
		m.Mem.L1D.RestoreState(s.l1d)
		m.Mem.L2.RestoreState(s.l2)
		m.Mem.ITLB.RestoreState(s.itlb)
		m.Mem.DTLB.RestoreState(s.dtlb)
	} else {
		m.Mem.L1I.InvalidateAll()
		m.Mem.L1D.InvalidateAll()
		m.Mem.L2.InvalidateAll()
		m.Mem.ITLB.InvalidateAll()
		m.Mem.DTLB.InvalidateAll()
	}
	m.Timer.restore(s.timer)
	m.SysCtl.restore(s.sysctl)
	m.UART.Restore(s.uart)
	m.core.LoadArch(s.arch)
}

// RestartApp re-stages only the application's memory image and the CPU
// state from the snapshot, leaving kernel DRAM, caches, and TLBs exactly as
// the previous run left them. This is how the beam experiment loops
// executions on a live board without rebooting Linux.
func (m *Machine) RestartApp(s *Snapshot) {
	// Drop any cached user-region lines (the reload writes DRAM beneath
	// the caches); kernel lines keep their residency, which is the whole
	// point of the live-board restart path.
	span := m.DRAM.Size() - UserTextBase
	m.Mem.L1I.InvalidateRange(UserTextBase, span)
	m.Mem.L1D.InvalidateRange(UserTextBase, span)
	m.Mem.L2.InvalidateRange(UserTextBase, span)
	m.DRAM.Restore(s.dram, UserTextBase)
	m.Mem.ITLB.InvalidateAll()
	m.Mem.DTLB.InvalidateAll()
	m.SysCtl.ClearHalt()
	m.core.LoadArch(s.arch)
}
