// Micro-architectural checkpointing: full-pipeline state capture for the
// checkpoint ladder (ISSUE 3). Unlike ArchState, which may only be taken
// at a quiescent point, a MicroState can be captured at *any* cycle
// boundary: it carries the complete in-flight state of the core —
// counters, rename tables, free list, fetch queue, ROB, issue queue,
// in-execution uops, functional-unit occupancy, and prediction state — so
// restoring it reproduces the live machine bit-for-bit, the way a gem5
// checkpoint restores mid-run simulation.
//
// Counters (cycle, seq, instrs) are restored verbatim rather than zeroed:
// golden runs always start from LoadArch at cycle zero, so every absolute
// cycle stamp inside the pipeline (doneAt, busyUntil, stall deadlines) is
// run-relative by construction, and a verbatim restore makes the restored
// machine indistinguishable from the live one at the captured instant.
//
// HashMicro folds the *live* subset of that state into a fingerprint: it
// deliberately excludes dead state — values of free or not-yet-written
// physical registers, uop sequence numbers (only their relative order,
// already encoded by ROB position, is observable), stall deadlines already
// in the past, and pure memo/stat fields — so that a faulty run whose
// live state has re-converged with the golden run fingerprints equal even
// when dead bytes still differ.

package cpu

import (
	"unsafe"

	"armsefi/internal/isa"
	"armsefi/internal/mem"
)

// MicroState is an opaque mid-run core snapshot. A state saved from one
// model can only be loaded into the same model with the same
// configuration. It is immutable after capture and safe to restore
// concurrently into different cores.
type MicroState struct {
	atomic   *atomicMicro
	detailed *detailedMicro
}

// MemoryBytes reports the memory the snapshot retains (checkpoint-ladder
// memory accounting): the state itself and every queue and table it
// copied.
func (m *MicroState) MemoryBytes() int {
	n := int(unsafe.Sizeof(*m))
	if m.atomic != nil {
		n += int(unsafe.Sizeof(*m.atomic))
	}
	if d := m.detailed; d != nil {
		n += int(unsafe.Sizeof(*d)) +
			cap(d.prf)*int(unsafe.Sizeof(physReg{})) +
			cap(d.freeList)*int(unsafe.Sizeof(int(0))) +
			(cap(d.fetchQ)+cap(d.rob))*int(unsafe.Sizeof(uop{})) +
			(cap(d.iq)+cap(d.executing))*int(unsafe.Sizeof(int32(0))) +
			cap(d.fuBusy)*int(unsafe.Sizeof(uint64(0))) +
			cap(d.predictor) +
			cap(d.btb)*int(unsafe.Sizeof(btbEntry{}))
	}
	return n
}

// ------------------------------------------------------------- atomic ---

type atomicMicro struct {
	pc     uint32
	regs   [isa.NumRegs]uint32
	flags  isa.Flags
	mode   isa.Mode
	irqOff bool
	vbar   uint32
	spBank [3]uint32
	elr    [3]uint32
	spsr   [3]isa.CPSR
	wfi    bool
	ttbr   uint32
	cycles uint64
	instrs uint64
}

// SaveMicro captures the atomic core mid-run. The atomic model has no
// in-flight state, so this is ArchState plus counters and WFI.
func (c *Atomic) SaveMicro() *MicroState {
	return &MicroState{atomic: &atomicMicro{
		pc: c.pc, regs: c.regs, flags: c.flags, mode: c.mode,
		irqOff: c.irqOff, vbar: c.vbar,
		spBank: c.spBank, elr: c.elr, spsr: c.spsr,
		wfi: c.wfi, ttbr: c.mem.TTBR(),
		cycles: c.cycles, instrs: c.instrs,
	}}
}

// LoadMicro restores a state captured by SaveMicro, counters included.
func (c *Atomic) LoadMicro(ms *MicroState) {
	m := ms.atomic
	c.pc = m.pc
	c.regs = m.regs
	c.flags = m.flags
	c.mode = m.mode
	c.irqOff = m.irqOff
	c.vbar = m.vbar
	c.spBank = m.spBank
	c.elr = m.elr
	c.spsr = m.spsr
	c.mem.SetTTBR(m.ttbr)
	c.fatal = false
	c.wfi = m.wfi
	c.cycles = m.cycles
	c.instrs = m.instrs
}

// HashMicro folds the atomic core's live state into h.
func (c *Atomic) HashMicro(h *mem.Hasher) {
	h.Word(c.cycles)
	h.Word(c.instrs)
	h.Word32(c.pc)
	for _, v := range c.regs {
		h.Word32(v)
	}
	hashFlags(h, c.flags)
	h.Word(uint64(c.mode))
	h.Bool(c.irqOff)
	h.Word32(c.vbar)
	hashBanks(h, c.spBank, c.elr, c.spsr)
	h.Bool(c.wfi)
	h.Word32(c.mem.TTBR())
}

// ----------------------------------------------------------- detailed ---

type detailedMicro struct {
	cycle  uint64
	seq    uint64
	instrs uint64

	commitPC uint32
	mode     isa.Mode
	irqOff   bool
	vbar     uint32
	spBank   [3]uint32
	elr      [3]uint32
	spsr     [3]isa.CPSR
	wfi      bool
	ttbr     uint32

	prf       []physReg
	renameMap [numArch]int
	archMap   [numArch]int
	freeList  []int

	fetchPC    uint32
	fetchStall uint64
	fetchHalt  bool

	// Queues are stored by value; issue-queue and executing entries alias
	// ROB ones in the live pipeline, so they are saved as ROB positions
	// and re-aliased on restore.
	fetchQ    []uop
	rob       []uop
	iq        []int32
	executing []int32

	fuBusy         []uint64
	serializeBlock bool
	commitStall    uint64

	predictor []uint8
	btb       []btbEntry
}

// robIndex returns a uop's position in the ROB. The ROB is ordered by the
// monotonically-assigned sequence number, so a binary search suffices;
// callers only pass uops that are ROB members (issue queue and executing
// entries alias ROB ones by construction).
func (c *Detailed) robIndex(u *uop) int {
	lo, hi := 0, c.rob.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.rob.at(mid).seq < u.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SaveMicro captures the detailed core mid-run, deep-copying every
// in-flight structure; the result shares nothing with the live pipeline.
func (c *Detailed) SaveMicro() *MicroState {
	m := &detailedMicro{
		cycle: c.cycle, seq: c.seq, instrs: c.instrs,
		commitPC: c.commitPC, mode: c.mode, irqOff: c.irqOff, vbar: c.vbar,
		spBank: c.spBank, elr: c.elr, spsr: c.spsr,
		wfi: c.wfi, ttbr: c.mem.TTBR(),
		renameMap: c.renameMap, archMap: c.archMap,
		fetchPC: c.fetchPC, fetchStall: c.fetchStall, fetchHalt: c.fetchHalt,
		serializeBlock: c.serializeBlock, commitStall: c.commitStall,
	}
	m.prf = append([]physReg(nil), c.prf...)
	m.freeList = append([]int(nil), c.freeList...)
	m.fetchQ = make([]uop, c.fetchQ.len())
	for i := range m.fetchQ {
		m.fetchQ[i] = *c.fetchQ.at(i)
	}
	m.rob = make([]uop, c.rob.len())
	for i := range m.rob {
		m.rob[i] = *c.rob.at(i)
	}
	m.iq = make([]int32, len(c.iq))
	for i, u := range c.iq {
		m.iq[i] = int32(c.robIndex(u))
	}
	m.executing = make([]int32, len(c.executing))
	for i, u := range c.executing {
		m.executing[i] = int32(c.robIndex(u))
	}
	m.fuBusy = make([]uint64, len(c.fus))
	for i := range c.fus {
		m.fuBusy[i] = c.fus[i].busyUntil
	}
	m.predictor = append([]uint8(nil), c.predictor...)
	m.btb = append([]btbEntry(nil), c.btb...)
	return &MicroState{detailed: m}
}

// LoadMicro restores a state captured by SaveMicro on a core with the
// same configuration. The MicroState is not consumed: the pipeline
// receives fresh deep copies, so one checkpoint can be restored any
// number of times (and concurrently into different cores).
func (c *Detailed) LoadMicro(ms *MicroState) {
	m := ms.detailed
	// Recycle the uops currently in flight; fetchQ and ROB together own
	// every live uop (issue queue and executing entries alias ROB ones).
	for i := 0; i < c.fetchQ.len(); i++ {
		c.recycleUop(c.fetchQ.at(i))
	}
	for i := 0; i < c.rob.len(); i++ {
		c.recycleUop(c.rob.at(i))
	}
	c.cycle = m.cycle
	c.seq = m.seq
	c.instrs = m.instrs
	c.commitPC = m.commitPC
	c.mode = m.mode
	c.irqOff = m.irqOff
	c.vbar = m.vbar
	c.spBank = m.spBank
	c.elr = m.elr
	c.spsr = m.spsr
	c.fatal = false
	c.wfi = m.wfi
	c.mem.SetTTBR(m.ttbr)
	if len(c.prf) == len(m.prf) {
		copy(c.prf, m.prf)
	} else {
		c.prf = append([]physReg(nil), m.prf...)
	}
	c.renameMap = m.renameMap
	c.archMap = m.archMap
	c.freeList = append(c.freeList[:0], m.freeList...)
	c.fetchPC = m.fetchPC
	c.fetchStall = m.fetchStall
	c.fetchHalt = m.fetchHalt
	c.serializeBlock = m.serializeBlock
	c.commitStall = m.commitStall
	if len(c.fetchQ.buf) == 0 {
		// A core that never went through LoadArch: size the rings now.
		c.fetchQ.init(c.cfg.FetchQueue)
		c.rob.init(c.cfg.ROBSize)
	}
	c.fetchQ.clear()
	for i := range m.fetchQ {
		u := c.allocUop()
		*u = m.fetchQ[i]
		c.fetchQ.push(u)
	}
	c.rob.clear()
	for i := range m.rob {
		u := c.allocUop()
		*u = m.rob[i]
		c.rob.push(u)
	}
	c.iq = c.iq[:0]
	for _, ri := range m.iq {
		c.iq = append(c.iq, c.rob.at(int(ri)))
	}
	c.executing = c.executing[:0]
	for _, ri := range m.executing {
		c.executing = append(c.executing, c.rob.at(int(ri)))
	}
	for i := range c.fus {
		c.fus[i].busyUntil = m.fuBusy[i]
	}
	copy(c.predictor, m.predictor)
	copy(c.btb, m.btb)
	if len(c.decTags) == 0 {
		// A core that never went through LoadArch: initialise the decode
		// memo the same way (it is a pure cache, content-irrelevant).
		c.decTags = make([]uint32, 4096)
		c.decOps = make([]isa.Instruction, 4096)
		for i := range c.decTags {
			c.decTags[i] = 0xFFFFFFFF
		}
	}
}

// HashMicro folds the detailed core's live state into h. Excluded as dead
// or non-semantic: values of free physical registers (alloc clears ready
// and writeback stores before any read), values of allocated-but-unready
// registers (writeback overwrites them), uop sequence numbers (ROB order
// already encodes the only observable property), stall deadlines that
// have already expired (normalised to zero so two different stale values
// compare equal), the uop pool, the decode memo, and the branch/squash
// statistics counters.
func (c *Detailed) HashMicro(h *mem.Hasher) {
	h.Word(c.cycle)
	h.Word(c.instrs)
	h.Word32(c.commitPC)
	h.Word(uint64(c.mode))
	h.Bool(c.irqOff)
	h.Word32(c.vbar)
	hashBanks(h, c.spBank, c.elr, c.spsr)
	h.Bool(c.wfi)
	h.Word32(c.mem.TTBR())
	for _, v := range c.renameMap {
		h.Word(uint64(v))
	}
	for _, v := range c.archMap {
		h.Word(uint64(v))
	}
	if cap(c.hashFree) < len(c.prf) {
		c.hashFree = make([]bool, len(c.prf))
	}
	free := c.hashFree[:len(c.prf)]
	for i := range free {
		free[i] = false
	}
	for _, i := range c.freeList {
		free[i] = true
	}
	var bm uint64
	nbit := 0
	for i := range c.prf {
		if free[i] {
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
	for i := range c.prf {
		if free[i] {
			continue
		}
		h.Bool(c.prf[i].ready)
		if c.prf[i].ready {
			h.Word32(c.prf[i].value)
		}
	}
	h.Word32(c.fetchPC)
	h.Word(expired(c.fetchStall, c.cycle))
	h.Bool(c.fetchHalt)
	h.Bool(c.serializeBlock)
	h.Word(expired(c.commitStall, c.cycle))
	nfq := c.fetchQ.len()
	h.Word(uint64(nfq))
	for i := 0; i < nfq; i++ {
		hashUop(h, c.fetchQ.at(i))
	}
	h.Word(uint64(c.rob.len()))
	for i, n := 0, c.rob.len(); i < n; i++ {
		hashUop(h, c.rob.at(i))
	}
	// Issue-queue and executing membership by position: which ROB entries
	// are still waiting vs in flight is timing-live state. The positions
	// hashed here (fetch-queue length + ROB index) match what the old
	// map-based identity scheme produced, so fingerprints are stable.
	h.Word(uint64(len(c.iq)))
	for _, u := range c.iq {
		h.Word(uint64(nfq + c.robIndex(u)))
	}
	h.Word(uint64(len(c.executing)))
	for _, u := range c.executing {
		h.Word(uint64(nfq + c.robIndex(u)))
	}
	for i := range c.fus {
		h.Word(expired(c.fus[i].busyUntil, c.cycle))
	}
	h.Bytes(c.predictor)
	for _, e := range c.btb {
		h.Bool(e.valid)
		h.Word32(e.tag)
		h.Word32(e.target)
	}
}

// expired normalises an absolute cycle deadline: deadlines at or before
// now no longer gate anything, so all of them hash as zero.
func expired(deadline, now uint64) uint64 {
	if deadline <= now {
		return 0
	}
	return deadline
}

// hashUop folds one in-flight uop. All fields except seq are hashed: uops
// are zeroed at allocation, so unwritten fields are deterministically
// zero, and the conditionally-written ones are exactly the live payload.
func hashUop(h *mem.Hasher, u *uop) {
	h.Word32(u.in.Encode())
	h.Word32(u.pc)
	h.Word(uint64(int64(u.srcRn)))
	h.Word(uint64(int64(u.srcOp2)))
	h.Word(uint64(int64(u.srcRd)))
	h.Word(uint64(int64(u.srcFlags)))
	h.Word(uint64(int64(u.dst)))
	h.Word(uint64(int64(u.dstFlags)))
	h.Word(uint64(int64(u.oldDst)))
	h.Word(uint64(int64(u.oldDstFlags)))
	h.Word(uint64(u.state))
	h.Word(u.doneAt)
	h.Word32(u.value)
	hashFlags(h, u.flags)
	h.Bool(u.setFlags)
	h.Bool(u.isBranch)
	h.Bool(u.predTaken)
	h.Word32(u.predTarget)
	h.Bool(u.taken)
	h.Word32(u.target)
	h.Bool(u.mispredict)
	h.Bool(u.writesPC)
	h.Bool(u.isStore)
	h.Word(uint64(int64(u.loadLat)))
	h.Bool(u.addrReady)
	h.Word32(u.storeAddr)
	h.Word32(u.storeSize)
	h.Word32(u.storeVal)
	h.Bool(u.hasExc)
	h.Word(uint64(u.exc))
	h.Word32(u.excRet)
	h.Bool(u.serialized)
	h.Bool(u.condFail)
}

func hashFlags(h *mem.Hasher, f isa.Flags) {
	h.Bool(f.N)
	h.Bool(f.Z)
	h.Bool(f.C)
	h.Bool(f.V)
}

func hashBanks(h *mem.Hasher, sp [3]uint32, elr [3]uint32, spsr [3]isa.CPSR) {
	for _, v := range sp {
		h.Word32(v)
	}
	for _, v := range elr {
		h.Word32(v)
	}
	for _, v := range spsr {
		h.Word32(uint32(v))
	}
}
