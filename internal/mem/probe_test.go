package mem

import (
	"encoding/json"
	"testing"
)

// TestProbeNilSafety pins the observer contract's cheapest path: every
// Note* hook and accessor must be a no-op on a nil probe, so the data
// paths can call them unconditionally.
func TestProbeNilSafety(t *testing.T) {
	var p *Probe
	p.NoteRead("l1d")
	p.NoteReadReg("regfile", 0x100, "r3")
	p.NoteOverwrite("l1d")
	p.NoteCleanEvict("l1d")
	p.NoteWriteback("l1d")
	p.NoteCommit("prf", 0x104, "r4")
	if p.Armed() {
		t.Error("nil probe reports armed")
	}
	if p.Events() != nil {
		t.Error("nil probe reports events")
	}
}

// TestProbeIgnoresEventsWhileDisarmed: a probe that no component armed
// (e.g. a tag-array injection) must record nothing.
func TestProbeIgnoresEventsWhileDisarmed(t *testing.T) {
	p := &Probe{}
	p.Reset(nil, nil)
	p.NoteRead("l1d")
	p.NoteOverwrite("l1d")
	if p.Armed() || p.Consumed() || len(p.Events()) != 0 {
		t.Errorf("disarmed probe recorded state: armed=%v consumed=%v events=%d",
			p.Armed(), p.Consumed(), len(p.Events()))
	}
}

// TestProbeLifecycle walks one full taint life: arm on live state, a
// consuming read, a writeback migration (taint stays alive), then an
// overwrite that kills it. A later clean-evict must not change the
// recorded cause of death — the first clearing event wins.
func TestProbeLifecycle(t *testing.T) {
	var now uint64
	var pc uint32
	p := &Probe{}
	p.Reset(func() uint64 { return now }, func() uint32 { return pc })
	p.Arm(true)
	if !p.Armed() || !p.LiveAtFlip() {
		t.Fatalf("armed=%v liveAtFlip=%v after Arm(true)", p.Armed(), p.LiveAtFlip())
	}
	if p.Consumed() || !p.Alive() || p.ClearedBy() != 0 {
		t.Fatal("fresh probe already has lifecycle state")
	}

	now, pc = 100, 0x8000
	p.NoteRead("l1d")
	if !p.Consumed() {
		t.Error("read did not mark the probe consumed")
	}
	now = 200
	p.NoteWriteback("l1d")
	if !p.Alive() {
		t.Error("writeback killed the taint (it only migrates it)")
	}
	now = 300
	p.NoteOverwrite("dram")
	if p.Alive() || p.ClearedBy() != ProbeOverwrite {
		t.Errorf("after overwrite: alive=%v clearedBy=%v", p.Alive(), p.ClearedBy())
	}
	now = 400
	p.NoteCleanEvict("dram")
	if p.ClearedBy() != ProbeOverwrite {
		t.Errorf("later clean-evict rewrote cause of death: %v", p.ClearedBy())
	}

	events := p.Events()
	wantKinds := []ProbeEventKind{ProbeRead, ProbeWriteback, ProbeOverwrite, ProbeCleanEvict}
	wantCycles := []uint64{100, 200, 300, 400}
	if len(events) != len(wantKinds) {
		t.Fatalf("recorded %d events, want %d", len(events), len(wantKinds))
	}
	for i, e := range events {
		if e.Kind != wantKinds[i] || e.Cycle != wantCycles[i] {
			t.Errorf("event %d = %v@%d, want %v@%d", i, e.Kind, e.Cycle, wantKinds[i], wantCycles[i])
		}
	}
	if events[0].PC != 0x8000 {
		t.Errorf("read event PC = %#x, want %#x", events[0].PC, 0x8000)
	}
}

// TestProbeEventCap: the chain is bounded at ProbeEventCap; summary state
// keeps accumulating past the cap and Dropped counts the overflow.
func TestProbeEventCap(t *testing.T) {
	p := &Probe{}
	p.Reset(nil, nil)
	p.Arm(true)
	const n = ProbeEventCap + 5
	for i := 0; i < n; i++ {
		p.NoteWriteback("l2")
	}
	p.NoteRead("dram") // past the cap, but the summary bit must still land
	if len(p.Events()) != ProbeEventCap {
		t.Errorf("event chain length %d, want cap %d", len(p.Events()), ProbeEventCap)
	}
	if p.Dropped() != n+1-ProbeEventCap {
		t.Errorf("dropped = %d, want %d", p.Dropped(), n+1-ProbeEventCap)
	}
	if !p.Consumed() {
		t.Error("read past the cap was not counted in the summary state")
	}
}

// TestProbeFirstRead: FirstRead returns the earliest consuming read, not
// just any event, and reports absence.
func TestProbeFirstRead(t *testing.T) {
	var now uint64
	p := &Probe{}
	p.Reset(func() uint64 { return now }, nil)
	p.Arm(true)
	if _, ok := p.FirstRead(); ok {
		t.Error("FirstRead on a read-free probe")
	}
	now = 10
	p.NoteWriteback("l1d")
	now = 20
	p.NoteReadReg("regfile", 0x9000, "r5")
	now = 30
	p.NoteRead("l2")
	ev, ok := p.FirstRead()
	if !ok || ev.Cycle != 20 || ev.Reg != "r5" || ev.PC != 0x9000 {
		t.Errorf("FirstRead = %+v, %v; want the cycle-20 register read", ev, ok)
	}
}

// TestProbeResetReuse: Reset must return the probe to its zero lifecycle
// for the next injection while reusing the event buffer.
func TestProbeResetReuse(t *testing.T) {
	p := &Probe{}
	p.Reset(nil, nil)
	p.Arm(true)
	for i := 0; i < ProbeEventCap+2; i++ {
		p.NoteRead("l1d")
	}
	p.NoteOverwrite("l1d")
	p.Reset(nil, nil)
	if p.Armed() || p.Consumed() || !p.Alive() || p.ClearedBy() != 0 ||
		p.Dropped() != 0 || len(p.Events()) != 0 {
		t.Errorf("state survived Reset: %+v", p)
	}
	p.Arm(false)
	if p.LiveAtFlip() {
		t.Error("liveAtFlip survived Reset")
	}
}

// TestProbeEventKindText: the JSONL trace round-trips event kinds by
// short name.
func TestProbeEventKindText(t *testing.T) {
	// Unnamed kinds (0, 200) round-trip through their numeric form.
	kinds := []ProbeEventKind{0, ProbeRead, ProbeOverwrite, ProbeCleanEvict, ProbeWriteback, ProbeCommit, 200}
	for _, k := range kinds {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ProbeEventKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("round-trip %v: got %v, err %v", k, back, err)
		}
	}
	var k ProbeEventKind
	if err := k.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown kind name parsed")
	}

	ev := ProbeEvent{Kind: ProbeRead, Cycle: 7, Loc: "l1d", PC: 0x8000, Reg: "r1"}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back ProbeEvent
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != ev {
		t.Errorf("JSON round-trip: %+v vs %+v", back, ev)
	}
}
