package harness

import (
	"math/rand"
	"reflect"
	"testing"

	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// ladderBench builds a workbench with a ladder of roughly `rungs` rungs,
// plus a ladder-free sibling over the same workload for reference runs.
func ladderBench(t *testing.T, warm bool, rungs int) (withLadder, plain *Workbench) {
	t.Helper()
	wb, err := New(soc.PresetModel(), soc.ModelDetailed, newBench(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := wb.Clone() // cloned before BuildLadder: stays ladder-free
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.BuildLadder(wb.Golden.Cycles/uint64(rungs)+1, rungs, warm); err != nil {
		t.Fatal(err)
	}
	if wb.Ladder.Rungs() < 2 {
		t.Fatalf("only %d rungs over %d golden cycles", wb.Ladder.Rungs(), wb.Golden.Cycles)
	}
	return wb, ref
}

// sampleFault draws one uniform fault over the given components.
func sampleFault(rng *rand.Rand, m *soc.Machine, comps []fault.Component, goldenCycles uint64) fault.Fault {
	comp := comps[rng.Intn(len(comps))]
	return fault.Fault{
		Comp:  comp,
		Bit:   uint64(rng.Int63n(int64(fault.SizeBits(m, comp)))),
		Cycle: uint64(rng.Int63n(int64(goldenCycles))),
	}
}

// TestLadderBitIdentityAndEarlyExitSoundness is the ladder's contract test:
// over a random fault sample, every ladder run must return exactly the
// class, context, and raw Result of the plain restore-and-replay path; and
// every fault the ladder exits early on must (by re-execution without the
// ladder) truly be Masked.
func TestLadderBitIdentityAndEarlyExitSoundness(t *testing.T) {
	for _, warm := range []bool{false, true} {
		wb, ref := ladderBench(t, warm, 24)
		rng := rand.New(rand.NewSource(11))
		comps := []fault.Component{fault.CompRegFile, fault.CompL1D, fault.CompDTLB}
		n := 40
		if testing.Short() {
			n = 12
		}
		earlyExits := 0
		for i := 0; i < n; i++ {
			f := sampleFault(rng, wb.Machine, comps, wb.Golden.Cycles)
			cls, ctx, res, stats := wb.RunFaultLadder(f, warm)
			pcls, pctx, pres := ref.RunFaultFull(f, warm)
			if cls != pcls || ctx != pctx || !reflect.DeepEqual(res, pres) {
				t.Fatalf("warm=%v fault %+v: ladder (%v, %+v, %+v) != plain (%v, %+v, %+v)",
					warm, f, cls, ctx, res, pcls, pctx, pres)
			}
			if stats.EarlyExit {
				earlyExits++
				if cls != fault.ClassMasked {
					t.Fatalf("warm=%v fault %+v: early exit classified %v, soundness requires Masked",
						warm, f, cls)
				}
			}
		}
		if earlyExits == 0 {
			t.Errorf("warm=%v: no early exits in %d faults — convergence detection inert?", warm, n)
		}
	}
}

// TestLadderFastForwardsInjections checks that rung restores actually skip
// golden-prefix cycles for late injections.
func TestLadderFastForwardsInjections(t *testing.T) {
	wb, _ := ladderBench(t, false, 16)
	f := fault.Fault{Comp: fault.CompRegFile, Bit: 33, Cycle: wb.Golden.Cycles - 1}
	_, _, _, stats := wb.RunFaultLadder(f, false)
	if stats.FastForwarded == 0 {
		t.Fatal("late injection started from cycle zero despite the ladder")
	}
	if stats.FastForwarded > f.Cycle {
		t.Fatalf("fast-forwarded %d cycles past the injection cycle %d", stats.FastForwarded, f.Cycle)
	}
}

// TestLadderWarmModeMismatchFallsBack pins that a ladder captured for one
// warm mode never serves the other mode's runs.
func TestLadderWarmModeMismatchFallsBack(t *testing.T) {
	wb, ref := ladderBench(t, false, 8)
	f := fault.Fault{Comp: fault.CompRegFile, Bit: 65, Cycle: wb.Golden.Cycles / 2}
	cls, _, res, stats := wb.RunFaultLadder(f, true) // warm run, cold ladder
	if stats != (soc.LadderStats{}) {
		t.Fatalf("mismatched warm mode still used the ladder: %+v", stats)
	}
	pcls, _, pres := ref.RunFaultFull(f, true)
	if cls != pcls || !reflect.DeepEqual(res, pres) {
		t.Fatalf("fallback path diverged: %v vs %v", cls, pcls)
	}
}

// TestCloneSharesLadder verifies clones inherit the ladder and produce the
// primary's exact results through it.
func TestCloneSharesLadder(t *testing.T) {
	wb, _ := ladderBench(t, false, 8)
	clone, err := wb.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Ladder != wb.Ladder {
		t.Fatal("clone did not inherit the ladder")
	}
	f := fault.Fault{Comp: fault.CompL1D, Bit: 4097, Cycle: wb.Golden.Cycles / 3}
	cls, ctx, res, _ := wb.RunFaultLadder(f, false)
	ccls, cctx, cres, _ := clone.RunFaultLadder(f, false)
	if cls != ccls || ctx != cctx || !reflect.DeepEqual(res, cres) {
		t.Fatalf("clone ladder run diverged: %v vs %v", cls, ccls)
	}
}

// TestLadderPrivatePagesSteadyState runs 50 ladder injections on one
// workbench whose small caches write back to DRAM: five faults, each run
// ten times. Every checkpoint restore hands the pages the previous run
// wrote back to the DRAM's free list, where the next run takes its pages
// from, so the count of private pages the DRAM holds stops growing after
// the first round.
func TestLadderPrivatePagesSteadyState(t *testing.T) {
	cfg := soc.PresetModel()
	cfg.Mem.L1D.SizeBytes = 1 << 10
	cfg.Mem.L2.SizeBytes = 2 << 10
	wb, err := New(cfg, soc.ModelDetailed, newBench(t, "fft"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.BuildLadder(0, 0, false); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	faults := make([]fault.Fault, 5)
	for i := range faults {
		faults[i] = sampleFault(rng, wb.Machine, fault.Components(), wb.Golden.Cycles)
	}
	var counts []int
	for i := 0; i < 50; i++ {
		wb.RunFaultLadder(faults[i%len(faults)], false)
		counts = append(counts, wb.Machine.DRAM.PrivatePages())
	}
	if counts[4] == 0 || counts[49] != counts[4] {
		t.Fatalf("private pages per run: %v; want a nonzero count that stops growing after run 5", counts)
	}
}
