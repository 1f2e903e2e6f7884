// Fault-propagation provenance probe (ISSUE 4). A Probe shadows one
// injected bit from flip time onward: the faulted component marks the
// corrupted cell as tainted, and the ordinary data paths — cache reads and
// refills, TLB lookups and inserts, writebacks, DRAM traffic, register
// reads and renames — report lifecycle events on the tainted state as they
// happen. The probe is purely observational: no data path branches on it
// beyond a nil-pointer check, so simulation results are bit-identical with
// the probe attached or absent.
//
// Taint is single-location: the corrupted bit lives in exactly one array
// at a time, and a dirty writeback *moves* it down the hierarchy (the
// level below absorbs the taint via AbsorbTaint). A refill that copies a
// corrupted line upward is reported as a consuming read instead — the
// corrupted bits left the tainted array toward the core — which keeps the
// tracking O(1) while preserving the question the verdict answers: was the
// corruption ever consumed, and if not, what erased it?
package mem

import "fmt"

// ProbeEventKind identifies one lifecycle event on tainted state.
type ProbeEventKind uint8

// Probe lifecycle events.
const (
	// ProbeRead is a consuming read: the corrupted state was returned to a
	// consumer (core register read, cache line fetch, TLB translation hit)
	// while still corrupted.
	ProbeRead ProbeEventKind = 1 + iota
	// ProbeOverwrite means fresh data replaced the corrupted state before
	// any writeback — the taint is dead.
	ProbeOverwrite
	// ProbeCleanEvict means the corrupted state was discarded without a
	// writeback (clean line eviction, invalidation, TLB flush) — the taint
	// is dead.
	ProbeCleanEvict
	// ProbeWriteback means a dirty writeback pushed the corrupted state to
	// the level below, which absorbed the taint — still alive, new home.
	ProbeWriteback
	// ProbeCommit means the detailed core architecturally committed an
	// instruction that consumed the corrupted value.
	ProbeCommit
)

var probeEventNames = [...]string{
	ProbeRead:       "read",
	ProbeOverwrite:  "overwrite",
	ProbeCleanEvict: "clean-evict",
	ProbeWriteback:  "writeback",
	ProbeCommit:     "commit",
}

// String returns the event kind's short name.
func (k ProbeEventKind) String() string {
	if int(k) < len(probeEventNames) && probeEventNames[k] != "" {
		return probeEventNames[k]
	}
	return fmt.Sprintf("probe-event(%d)", uint8(k))
}

// MarshalText renders the kind as its short name (JSONL trace field).
func (k ProbeEventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a name produced by MarshalText, including the
// numeric fallback form String prints for unnamed kinds
// ("probe-event(N)"), so every value round-trips.
func (k *ProbeEventKind) UnmarshalText(text []byte) error {
	s := string(text)
	for i, n := range probeEventNames {
		if n != "" && n == s {
			*k = ProbeEventKind(i)
			return nil
		}
	}
	var n uint8
	if _, err := fmt.Sscanf(s, "probe-event(%d)", &n); err == nil {
		*k = ProbeEventKind(n)
		return nil
	}
	return fmt.Errorf("mem: unknown probe event kind %q", s)
}

// ProbeEvent is one observation on the tainted state.
type ProbeEvent struct {
	Kind  ProbeEventKind `json:"kind"`
	Cycle uint64         `json:"cycle"`
	// Loc names the array holding the taint when the event fired
	// (cache/TLB name, "dram", "regfile", "prf").
	Loc string `json:"loc"`
	// PC is the program counter at the event, when one is known.
	PC uint32 `json:"pc,omitempty"`
	// Reg names the destination register of a consuming read or commit,
	// when the CPU layer knows it.
	Reg string `json:"reg,omitempty"`
}

// ProbeEventCap bounds the recorded event chain per injection; summary
// state (consumed, cleared-by) keeps accumulating past the cap and
// Dropped counts the overflow.
const ProbeEventCap = 16

// Probe tracks one injected bit. It is owned by a single worker and its
// workbench: no synchronisation, no allocation after the first arming.
// The zero value is ready for Reset.
type Probe struct {
	clock func() uint64
	pc    func() uint32

	armed      bool
	liveAtFlip bool
	consumed   bool
	cleared    ProbeEventKind // 0 while the taint is still alive
	dropped    int
	events     []ProbeEvent
}

// Reset prepares the probe for a new injection: clock supplies event
// cycle stamps and pc the committed program counter for mem-layer events
// (either may be nil). The event buffer is reused across injections.
func (p *Probe) Reset(clock func() uint64, pc func() uint32) {
	events := p.events[:0]
	*p = Probe{clock: clock, pc: pc, events: events}
}

// Arm marks the probe live on a freshly tainted cell; live reports whether
// the cell held live (valid) state at flip time. Called by the component's
// Taint* method, once per injection.
func (p *Probe) Arm(live bool) {
	p.armed = true
	p.liveAtFlip = live
}

func (p *Probe) now() uint64 {
	if p.clock != nil {
		return p.clock()
	}
	return 0
}

func (p *Probe) curPC() uint32 {
	if p.pc != nil {
		return p.pc()
	}
	return 0
}

func (p *Probe) add(kind ProbeEventKind, loc string, pc uint32, reg string) {
	if len(p.events) >= ProbeEventCap {
		p.dropped++
		return
	}
	p.events = append(p.events, ProbeEvent{Kind: kind, Cycle: p.now(), Loc: loc, PC: pc, Reg: reg})
}

// NoteRead records a consuming read observed by a mem-layer array; the PC
// stamp is the core's committed PC (an approximation for the detailed
// model, exact for the atomic one).
func (p *Probe) NoteRead(loc string) {
	if p == nil || !p.armed {
		return
	}
	p.consumed = true
	p.add(ProbeRead, loc, p.curPC(), "")
}

// NoteReadReg records a consuming read with an exact PC and destination
// register, as the CPU layer sees them.
func (p *Probe) NoteReadReg(loc string, pc uint32, reg string) {
	if p == nil || !p.armed {
		return
	}
	p.consumed = true
	p.add(ProbeRead, loc, pc, reg)
}

// NoteOverwrite records that fresh data replaced the corrupted state.
func (p *Probe) NoteOverwrite(loc string) {
	if p == nil || !p.armed {
		return
	}
	if p.cleared == 0 {
		p.cleared = ProbeOverwrite
	}
	p.add(ProbeOverwrite, loc, p.curPC(), "")
}

// NoteCleanEvict records that the corrupted state was discarded without a
// writeback.
func (p *Probe) NoteCleanEvict(loc string) {
	if p == nil || !p.armed {
		return
	}
	if p.cleared == 0 {
		p.cleared = ProbeCleanEvict
	}
	p.add(ProbeCleanEvict, loc, p.curPC(), "")
}

// NoteWriteback records that a dirty writeback moved the corrupted state
// (and the taint) to the level below.
func (p *Probe) NoteWriteback(loc string) {
	if p == nil || !p.armed {
		return
	}
	p.add(ProbeWriteback, loc, p.curPC(), "")
}

// NoteCommit records an architectural commit of an instruction that
// consumed the corrupted value (detailed core).
func (p *Probe) NoteCommit(loc string, pc uint32, reg string) {
	if p == nil || !p.armed {
		return
	}
	p.add(ProbeCommit, loc, pc, reg)
}

// Armed reports whether a component accepted the taint for this injection.
func (p *Probe) Armed() bool { return p != nil && p.armed }

// LiveAtFlip reports whether the faulted cell held live state at flip time.
func (p *Probe) LiveAtFlip() bool { return p.liveAtFlip }

// Consumed reports whether the corrupted state was ever read.
func (p *Probe) Consumed() bool { return p.consumed }

// Alive reports whether the taint survived to the end of the run
// (latent corruption: never overwritten, never discarded).
func (p *Probe) Alive() bool { return p.cleared == 0 }

// ClearedBy returns the event kind that killed the taint (ProbeOverwrite
// or ProbeCleanEvict), or zero while the taint is alive.
func (p *Probe) ClearedBy() ProbeEventKind { return p.cleared }

// Events returns the recorded event chain. The slice aliases the probe's
// buffer and is valid until the next Reset.
func (p *Probe) Events() []ProbeEvent {
	if p == nil {
		return nil
	}
	return p.events
}

// Dropped returns how many events overflowed ProbeEventCap.
func (p *Probe) Dropped() int { return p.dropped }

// FirstRead returns the first consuming-read event, if any was recorded.
func (p *Probe) FirstRead() (ProbeEvent, bool) {
	for _, e := range p.events {
		if e.Kind == ProbeRead {
			return e, true
		}
	}
	return ProbeEvent{}, false
}

// taintAbsorber is implemented by backing levels that can take over a
// tainted location when a dirty writeback pushes corrupted data down the
// hierarchy.
type taintAbsorber interface {
	AbsorbTaint(addr uint32, p *Probe)
}
