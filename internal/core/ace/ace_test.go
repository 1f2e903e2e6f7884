// External test package: the prune pre-filter made gefin depend on ace,
// so the injection cross-checks here must live outside the package to
// avoid an import cycle.
package ace_test

import (
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/mem"
)

func TestCacheLifetimeIntegration(t *testing.T) {
	var now uint64
	dram := mem.NewDRAM(1 << 16)
	bus := mem.NewBus(dram)
	c := mem.NewCache(mem.CacheConfig{Name: "c", SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, HitCycles: 1}, bus)
	rec := c.AttachLiveness(&now)

	now = 100
	c.Read(0, 4) // fill at 100, read counts on the fill access
	now = 200
	c.Read(0, 4) // last read at 200
	now = 1000
	c.InvalidateAll() // clean eviction: ACE = 200-100
	avf, total, read := rec.ACE(1100)
	// 100 ACE cycles / (32 lines x 1100 cycles).
	if want := 100.0 / (32 * 1100); avf != want || total != 1 || read != 1 {
		t.Fatalf("AVF = %g values %d/%d, want %g 1/1", avf, total, read, want)
	}
}

func TestDirtyDataIsACEUntilDeparture(t *testing.T) {
	var now uint64
	dram := mem.NewDRAM(1 << 16)
	bus := mem.NewBus(dram)
	c := mem.NewCache(mem.CacheConfig{Name: "c", SizeBytes: 1 << 10, LineBytes: 32, Ways: 2, HitCycles: 1}, bus)
	rec := c.AttachLiveness(&now)
	now = 10
	c.Write(0, 4, 42) // fill (the clean value closes unread) + dirty value opens
	now = 20
	c.Write(32, 4, 7) // a second line, still dirty when the run ends
	now = 500
	c.FlushAll() // both write back: ACE to departure, 490 + 480
	avf, total, read := rec.ACE(600)
	if want := 970.0 / (32 * 600); avf != want || total != 4 || read != 0 {
		t.Fatalf("flushed: AVF = %g values %d/%d, want %g 4/0", avf, total, read, want)
	}

	// A dirty value still live at the end counts as ACE through the run's
	// last cycle: it would be written back.
	now = 550
	c.Write(64, 4, 1)
	avf, _, _ = rec.ACE(600)
	if want := (970.0 + 599 - 550) / (32 * 600); avf != want {
		t.Fatalf("live dirty: AVF = %g, want %g", avf, want)
	}
}

func TestACERunProducesEstimates(t *testing.T) {
	spec, _ := bench.ByName("qsort")
	res, err := ace.Run(ace.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Components) != 5 {
		t.Fatalf("components = %d", len(res.Components))
	}
	for _, e := range res.Components {
		if e.AVF < 0 || e.AVF > 1 {
			t.Errorf("%v: AVF %f out of range", e.Comp, e.AVF)
		}
	}
	// The data-carrying structures must show nonzero residency for a
	// sorting workload.
	l1d, _ := res.Component(fault.CompL1D)
	if l1d.AVF == 0 || l1d.ValuesRead == 0 {
		t.Errorf("L1D ACE AVF = %f values=%d", l1d.AVF, l1d.ValuesRead)
	}
	dtlb, _ := res.Component(fault.CompDTLB)
	if dtlb.AVF == 0 {
		t.Error("DTLB ACE AVF = 0")
	}
}

// TestACEOverestimatesInjection reproduces the qualitative finding of [28]:
// per-line ACE analysis yields AVF estimates at or above the statistical
// fault-injection measurement.
func TestACEOverestimatesInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign")
	}
	spec, _ := bench.ByName("qsort")
	aceRes, err := ace.Run(ace.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	injRes, err := gefin.RunWorkload(gefin.Config{
		FaultsPerComponent: 60,
		Seed:               404,
		Components:         []fault.Component{fault.CompDTLB},
	}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	aceDTLB, _ := aceRes.Component(fault.CompDTLB)
	injDTLB, _ := injRes.Component(fault.CompDTLB)
	margin := injDTLB.ErrorMargin()
	if aceDTLB.AVF < injDTLB.AVF()-2*margin {
		t.Errorf("ACE DTLB AVF %f far below injection %f (margin %f) — over-estimation property violated",
			aceDTLB.AVF, injDTLB.AVF(), margin)
	}
}
