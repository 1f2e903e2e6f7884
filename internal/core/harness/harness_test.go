package harness

import (
	"bytes"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

func newBench(t *testing.T, name string) *bench.Built {
	t.Helper()
	spec, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return built
}

func TestWorkbenchGoldenValidation(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelDetailed, newBench(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Golden.CleanExit() {
		t.Fatal("golden run not clean")
	}
	if !bytes.Equal(wb.Golden.Output, wb.Built.Golden) {
		t.Fatal("golden output mismatch")
	}
	if wb.Watchdog <= wb.Golden.Cycles {
		t.Fatal("watchdog shorter than the golden run")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelDetailed, newBench(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	a := wb.RunClean()
	b := wb.RunClean()
	if a.Cycles != b.Cycles || !bytes.Equal(a.Output, b.Output) {
		t.Fatalf("clean runs diverge: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.Cycles != wb.Golden.Cycles {
		t.Fatalf("restored run (%d cycles) differs from golden (%d)", a.Cycles, wb.Golden.Cycles)
	}
	f := fault.Fault{Comp: fault.CompRegFile, Bit: 101, Cycle: a.Cycles / 2}
	c1, _, _, _ := wb.RunFaultLadder(f, false)
	c2, _, _, _ := wb.RunFaultLadder(f, false)
	if c1 != c2 {
		t.Fatalf("identical faults classified differently: %v vs %v", c1, c2)
	}
}

func TestFaultAtZeroAndLateCycles(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelAtomic, newBench(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	// Faults at the boundaries must classify without hanging the harness.
	for _, cycle := range []uint64{0, wb.Golden.Cycles - 1, wb.Golden.Cycles + 1000} {
		cls, _, _, _ := wb.RunFaultLadder(fault.Fault{Comp: fault.CompL2, Bit: 777, Cycle: cycle}, false)
		if cls < fault.ClassMasked || cls > fault.ClassSysCrash {
			t.Fatalf("cycle %d: bad class %v", cycle, cls)
		}
	}
}

func TestAtomicWorkbench(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelAtomic, newBench(t, "susan_e"))
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Golden.CleanExit() {
		t.Fatal("atomic golden not clean")
	}
}

// TestCloneIsEquivalent verifies the parallel engines' foundation: a
// cloned workbench reproduces the original's snapshot, golden timing, and
// per-fault classifications without re-running the golden validation.
func TestCloneIsEquivalent(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelDetailed, newBench(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	clone, err := wb.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Machine == wb.Machine || clone.Snap == wb.Snap {
		t.Fatal("clone shares mutable state with the original")
	}
	if clone.Golden.Cycles != wb.Golden.Cycles || clone.Watchdog != wb.Watchdog {
		t.Fatal("clone did not inherit golden metrics")
	}
	res := clone.RunClean()
	if res.Cycles != wb.Golden.Cycles || !bytes.Equal(res.Output, wb.Golden.Output) {
		t.Fatalf("clone's clean run (%d cycles) diverges from the original golden (%d)",
			res.Cycles, wb.Golden.Cycles)
	}
	for _, f := range []fault.Fault{
		{Comp: fault.CompRegFile, Bit: 77, Cycle: wb.Golden.Cycles / 3},
		{Comp: fault.CompL1D, Bit: 2048, Cycle: wb.Golden.Cycles / 2},
		{Comp: fault.CompDTLB, Bit: 5, Cycle: 1000},
	} {
		a, actx, _, _ := wb.RunFaultLadder(f, false)
		b, bctx, _, _ := clone.RunFaultLadder(f, false)
		if a != b || actx != bctx {
			t.Fatalf("fault %v: original %v/%+v vs clone %v/%+v", f, a, actx, b, bctx)
		}
	}
}

// TestKernelResidencyDiffersWarmVsCold verifies the mechanism behind the
// paper's System-Crash analysis: the warm (live-board) state holds many
// more valid cache lines — kernel state included — than the cold
// (injection-run) state.
func TestKernelResidencyDiffersWarmVsCold(t *testing.T) {
	wb, err := New(soc.PresetModel(), soc.ModelAtomic, newBench(t, "susan_e"))
	if err != nil {
		t.Fatal(err)
	}
	wb.Machine.RestoreSnapshot(wb.Snap, false)
	cold := wb.Machine.Mem.L2.ValidLines()
	wb.Machine.RestoreSnapshot(wb.Snap, true)
	warm := wb.Machine.Mem.L2.ValidLines()
	if cold != 0 {
		t.Fatalf("cold restore left %d valid L2 lines", cold)
	}
	if warm == 0 {
		t.Fatal("warm restore has no valid L2 lines")
	}
}
