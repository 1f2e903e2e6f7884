package armsefi

import (
	"testing"

	"armsefi/internal/soc"
)

func TestFacadeEndToEnd(t *testing.T) {
	specs := Workloads()
	if len(specs) != 13 {
		t.Fatalf("Workloads() = %d, want 13", len(specs))
	}
	spec, ok := WorkloadByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	built, err := spec.Build(soc.UserAsmConfig(), ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWorkbench(PresetModel(), ModelDetailed, built)
	if err != nil {
		t.Fatal(err)
	}
	cls, _, _, _ := wb.RunFaultLadder(Fault{Comp: CompL1D, Bit: 3, Cycle: wb.Golden.Cycles / 2}, false)
	if cls < Masked || cls > SysCrash {
		t.Fatalf("class %v", cls)
	}
}

func TestFacadeCampaignsAndComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	specs := []Workload{}
	for _, n := range []string{"crc32"} {
		s, _ := WorkloadByName(n)
		specs = append(specs, s)
	}
	beamRes, err := RunBeam(BeamConfig{Seed: 4, BeamHours: 1, StrikesPerComponent: 4}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	injRes, err := RunInjection(InjectionConfig{Seed: 4, FaultsPerComponent: 10}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cmps := CompareFIT(beamRes, injRes, 0)
	if len(cmps) != 1 || cmps[0].Workload != "crc32" {
		t.Fatalf("comparisons = %+v", cmps)
	}
}

func TestPresets(t *testing.T) {
	z, g := PresetZynq(), PresetModel()
	if z.Name == g.Name {
		t.Error("presets indistinguishable")
	}
	m, err := NewMachine(z, ModelAtomic)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(50_000_000); err != nil {
		t.Fatal(err)
	}
}
