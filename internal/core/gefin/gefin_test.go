package gefin

import (
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/soc"
)

// faultsN trims statistical sample sizes in -short mode (notably the CI
// race-detector job, where every injection run costs ~10-20x): the
// properties under test hold at any sample size.
func faultsN(full int) int {
	if testing.Short() {
		return (full + 2) / 3
	}
	return full
}

func smallConfig() Config {
	return Config{FaultsPerComponent: faultsN(25), Seed: 77}
}

func runSmall(t *testing.T, cfg Config, workload string) *WorkloadResult {
	t.Helper()
	spec, ok := bench.ByName(workload)
	if !ok {
		t.Fatalf("workload %s missing", workload)
	}
	res, err := RunWorkload(cfg, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCampaignShape(t *testing.T) {
	res := runSmall(t, smallConfig(), "qsort")
	if len(res.Components) != fault.NumComponents {
		t.Fatalf("components = %d", len(res.Components))
	}
	for _, c := range res.Components {
		total := 0
		for _, n := range c.Counts {
			total += n
		}
		if total != c.N {
			t.Errorf("%v: counts sum %d != N %d", c.Comp, total, c.N)
		}
		if avf := c.AVF(); avf < 0 || avf > 1 {
			t.Errorf("%v: AVF %f out of range", c.Comp, avf)
		}
		if m := c.ErrorMargin(); m <= 0 || m > 0.5 {
			t.Errorf("%v: margin %f out of range", c.Comp, m)
		}
		if c.SizeBits == 0 {
			t.Errorf("%v: zero size", c.Comp)
		}
	}
	if res.GoldenCycles == 0 || res.GoldenInstrs == 0 {
		t.Error("golden run metrics missing")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := runSmall(t, smallConfig(), "crc32")
	b := runSmall(t, smallConfig(), "crc32")
	for i := range a.Components {
		for cls, n := range a.Components[i].Counts {
			if b.Components[i].Counts[cls] != n {
				t.Fatalf("%v %v: %d vs %d — campaign not reproducible",
					a.Components[i].Comp, cls, n, b.Components[i].Counts[cls])
			}
		}
	}
}

func TestSeedChangesOutcomes(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 78
	a := runSmall(t, smallConfig(), "crc32")
	b := runSmall(t, cfg2, "crc32")
	same := true
	for i := range a.Components {
		for cls, n := range a.Components[i].Counts {
			if b.Components[i].Counts[cls] != n {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical campaigns (suspicious)")
	}
}

// TestTLBTagAblation verifies the paper's observation that virtual-tag
// flips are orders of magnitude more benign than physical-page flips.
func TestTLBTagRegionSampling(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultsPerComponent = faultsN(30)
	cfg.Components = []fault.Component{fault.CompDTLB}
	phys := runSmall(t, cfg, "qsort")

	cfg.TLBFullEntry = true
	full := runSmall(t, cfg, "qsort")

	pa, _ := phys.Component(fault.CompDTLB)
	fa, _ := full.Component(fault.CompDTLB)
	// Full-entry sampling dilutes faults over the ~half of the entry that
	// is the harmless virtual tag, so its AVF must not exceed the
	// physical-region AVF (ties possible at small samples).
	if fa.AVF() > pa.AVF() {
		t.Errorf("full-entry AVF %f > physical-region AVF %f", fa.AVF(), pa.AVF())
	}
}

func TestWorkloadLookup(t *testing.T) {
	res := &Result{Workloads: []WorkloadResult{{Workload: "a"}, {Workload: "b"}}}
	if w, ok := res.Workload("b"); !ok || w.Workload != "b" {
		t.Error("lookup failed")
	}
	if _, ok := res.Workload("zzz"); ok {
		t.Error("phantom workload found")
	}
}

func TestProgressCallback(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{FaultsPerComponent: 3, Seed: 5, Components: []fault.Component{fault.CompRegFile}}
	// The engine serialises emissions, so the closure's state needs no lock
	// even at Workers > 1.
	cfg.Workers = 2
	calls := 0
	lastDone := 0
	_, err := RunWorkload(cfg, spec, func(ev ProgressEvent) {
		calls++
		if ev.Workload != "crc32" || ev.Comp != fault.CompRegFile || ev.Total != 3 {
			t.Errorf("bad progress: %s %v %d/%d", ev.Workload, ev.Comp, ev.Done, ev.Total)
		}
		if ev.CampaignTotal != 3 || ev.CampaignDone != lastDone+1 {
			t.Errorf("bad campaign counts: %d/%d after %d", ev.CampaignDone, ev.CampaignTotal, lastDone)
		}
		lastDone = ev.CampaignDone
		if ev.Workers < 1 || ev.Workers > 2 {
			t.Errorf("workers = %d", ev.Workers)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("progress called %d times, want 3", calls)
	}
	if lastDone != 3 {
		t.Errorf("final CampaignDone = %d, want 3", lastDone)
	}
}

// equalComponentResults asserts two workload results agree on every
// per-component outcome map — the parallel engine's determinism contract.
func equalComponentResults(t *testing.T, a, b *WorkloadResult) {
	t.Helper()
	if len(a.Components) != len(b.Components) {
		t.Fatalf("component counts differ: %d vs %d", len(a.Components), len(b.Components))
	}
	for i := range a.Components {
		ca, cb := a.Components[i], b.Components[i]
		if ca.Comp != cb.Comp || ca.SizeBits != cb.SizeBits || ca.N != cb.N {
			t.Fatalf("component %d headers differ: %+v vs %+v", i, ca, cb)
		}
		for _, cls := range fault.Classes() {
			if ca.Counts[cls] != cb.Counts[cls] {
				t.Errorf("%v %v: counts %d vs %d", ca.Comp, cls, ca.Counts[cls], cb.Counts[cls])
			}
			if ca.ValidStruck[cls] != cb.ValidStruck[cls] {
				t.Errorf("%v %v: valid-struck %d vs %d", ca.Comp, cls, ca.ValidStruck[cls], cb.ValidStruck[cls])
			}
			if ca.KernelStruck[cls] != cb.KernelStruck[cls] {
				t.Errorf("%v %v: kernel-struck %d vs %d", ca.Comp, cls, ca.KernelStruck[cls], cb.KernelStruck[cls])
			}
		}
	}
}

// TestWorkerCountInvariance is the centrepiece contract of the parallel
// engine: the same seed produces a bit-identical campaign at any worker
// count, because faults are pre-drawn before execution is sharded.
func TestWorkerCountInvariance(t *testing.T) {
	seq := smallConfig()
	seq.Workers = 1
	par := smallConfig()
	par.Workers = 4
	a := runSmall(t, seq, "crc32")
	b := runSmall(t, par, "crc32")
	if a.GoldenCycles != b.GoldenCycles || a.GoldenInstrs != b.GoldenInstrs {
		t.Fatalf("golden runs differ: %d/%d vs %d/%d cycles/instrs",
			a.GoldenCycles, a.GoldenInstrs, b.GoldenCycles, b.GoldenInstrs)
	}
	equalComponentResults(t, a, b)
}

// TestRunParallelWorkloads checks the top-level engine: concurrent
// workloads under a shared worker budget produce the same Result as the
// sequential path, in spec order.
func TestRunParallelWorkloads(t *testing.T) {
	var specs []bench.Spec
	for _, name := range []string{"crc32", "qsort"} {
		s, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		specs = append(specs, s)
	}
	cfg := Config{FaultsPerComponent: faultsN(10), Seed: 42, Components: []fault.Component{fault.CompRegFile, fault.CompDTLB}}
	cfg.Workers = 1
	seq, err := Run(cfg, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(cfg, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Workloads) != len(specs) {
		t.Fatalf("workloads = %d", len(par.Workloads))
	}
	for i, spec := range specs {
		if par.Workloads[i].Workload != spec.Name {
			t.Fatalf("workload %d is %q, want %q (order must follow specs)",
				i, par.Workloads[i].Workload, spec.Name)
		}
		equalComponentResults(t, &seq.Workloads[i], &par.Workloads[i])
	}
}

// TestPageTableLineStrikeIsNeverBenign pins down the paper's System-Crash
// mechanism deterministically: with warm (live-board) caches, the page
// table sits in the L1D. Flipping a physical-page-number bit of the PTE
// that maps the application's first code page guarantees a wrong
// translation on the first user fetch — the fault cannot be masked.
func TestPageTableLineStrikeIsNeverBenign(t *testing.T) {
	spec, _ := bench.ByName("susan_s")
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := harness.New(soc.PresetZynq(), soc.ModelAtomic, built)
	if err != nil {
		t.Fatal(err)
	}
	// The PTE for the app entry page lives at PageTableBase + vpn*4.
	pteAddr := soc.PageTableBase + (soc.UserTextBase>>12)*4

	// Locate the L1D bit index holding that PTE in the warm state.
	wb.Machine.RestoreSnapshot(wb.Snap, true)
	l1d := wb.Machine.Mem.L1D
	lineBytes := uint64(l1d.Config().LineBytes)
	target := uint64(0)
	found := false
	for bit := uint64(0); bit < l1d.SizeBits(); bit += lineBytes * 8 {
		addr, valid, _ := l1d.LineInfo(bit)
		if valid && addr == pteAddr&^uint32(lineBytes-1) {
			off := uint64(pteAddr) % lineBytes // byte offset of the PTE in its line
			target = bit + off*8 + 14          // a PPN bit (bit 14 of the PTE word)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("page-table line not resident in warm L1D — boot path changed?")
	}
	cls, ctx, _, _ := wb.RunFaultLadder(fault.Fault{Comp: fault.CompL1D, Bit: target, Cycle: 0}, true)
	if !ctx.LineValid || !ctx.KernelOwned() {
		t.Fatalf("context = %+v, want live kernel-owned line", ctx)
	}
	if cls == fault.ClassMasked {
		t.Fatalf("PPN flip in the app's code-page PTE was masked")
	}
}

func TestContextCountsConsistent(t *testing.T) {
	cfg := smallConfig()
	cfg.FaultsPerComponent = faultsN(20)
	res := runSmall(t, cfg, "crc32")
	for _, c := range res.Components {
		for _, cls := range fault.Classes() {
			if c.KernelStruck[cls] > c.ValidStruck[cls] {
				t.Errorf("%v/%v: kernel-struck %d exceeds valid-struck %d",
					c.Comp, cls, c.KernelStruck[cls], c.ValidStruck[cls])
			}
			if c.ValidStruck[cls] > c.Counts[cls] {
				t.Errorf("%v/%v: valid-struck %d exceeds outcomes %d",
					c.Comp, cls, c.ValidStruck[cls], c.Counts[cls])
			}
		}
	}
}
