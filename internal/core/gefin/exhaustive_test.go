package gefin

import (
	"reflect"
	"strings"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/mem"
)

// TestExhaustivePlanInvariants pins the sweep plan's population-exact
// accounting on the real crc32 liveness replay: per enumerated DTLB
// site, the planned windows tile the golden cycle range exactly (weights
// sum to Sites x GoldenCycles), every slot targets a modelable
// physical-region bit, and rebuilding the plan derives the identical
// enumeration. The ITLB arm must refuse: instruction fetch overflows its
// hot entry's event recording, and a truncated stream cannot claim
// population exactness.
func TestExhaustivePlanInvariants(t *testing.T) {
	cfg := Config{Exhaustive: true, Components: []fault.Component{fault.CompDTLB}}.withDefaults()
	spec, _ := bench.ByName("crc32")
	wb, err := prepareWorkbench(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	ep, sizes, err := exhaustivePlanFor(cfg, wb)
	if err != nil {
		t.Fatal(err)
	}
	if ep.sites[0] == 0 || ep.perComp[0] == 0 {
		t.Fatalf("empty enumeration: %d sites, %d windows", ep.sites[0], ep.perComp[0])
	}
	if len(ep.plan) != ep.perComp[0] || len(ep.weights) != len(ep.plan) {
		t.Fatalf("plan %d, weights %d, perComp %d disagree", len(ep.plan), len(ep.weights), ep.perComp[0])
	}
	if sizes[0] != fault.SizeBits(wb.Machine, fault.CompDTLB) {
		t.Fatalf("component size %d", sizes[0])
	}
	var sum uint64
	perSite := make(map[uint64]uint64)
	for i, p := range ep.plan {
		if p.comp != 0 || p.f.Comp != fault.CompDTLB {
			t.Fatalf("slot %d targets %v", i, p.f.Comp)
		}
		if b := p.f.Bit % mem.TLBEntryBits; b < mem.TLBPhysRegionStart || b >= mem.TLBPhysRegionStart+mem.TLBModelBits {
			t.Fatalf("slot %d strikes unmodelable entry bit %d", i, b)
		}
		if p.f.Cycle >= wb.Golden.Cycles {
			t.Fatalf("slot %d beyond the golden run: cycle %d", i, p.f.Cycle)
		}
		sum += ep.weights[i]
		perSite[p.f.Bit] += ep.weights[i]
	}
	if want := ep.sites[0] * wb.Golden.Cycles; sum != want {
		t.Fatalf("weights sum to %d, want Sites x GoldenCycles = %d", sum, want)
	}
	if uint64(len(perSite)) != ep.sites[0] {
		t.Fatalf("%d distinct sites in plan, %d counted", len(perSite), ep.sites[0])
	}
	for bit, w := range perSite {
		if w != wb.Golden.Cycles {
			t.Fatalf("site %d windows sum to %d, want %d", bit, w, wb.Golden.Cycles)
		}
	}

	again, _, err := exhaustivePlanFor(cfg, wb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ep, again) {
		t.Fatal("re-derived plan differs: the sweep is not a pure function of the liveness log")
	}

	icfg := cfg
	icfg.Components = []fault.Component{fault.CompITLB}
	if _, _, err := exhaustivePlanFor(icfg, wb); err == nil || !strings.Contains(err.Error(), "overflowed") {
		t.Fatalf("overflowed ITLB enumeration did not refuse: %v", err)
	}
}

// TestExhaustiveAggregate checks the weighted aggregation on a synthetic
// plan: unweighted counts describe the simulated windows, weighted
// counts sum to the population exactly, and the sweep summary carries
// the enumeration statistics.
func TestExhaustiveAggregate(t *testing.T) {
	cfg := Config{Exhaustive: true, Components: []fault.Component{fault.CompDTLB}}.withDefaults()
	const goldenCycles = 100
	ep := &exhaustivePlan{
		plan: []plannedFault{
			{comp: 0, f: fault.Fault{Comp: fault.CompDTLB, Bit: 20, Cycle: 0}},
			{comp: 0, f: fault.Fault{Comp: fault.CompDTLB, Bit: 20, Cycle: 30}},
			{comp: 0, f: fault.Fault{Comp: fault.CompDTLB, Bit: 63, Cycle: 0}},
		},
		weights: []uint64{30, 70, 100},
		perComp: []int{3},
		sites:   []uint64{2},
	}
	outcomes := []outcome{
		{class: fault.ClassMasked},
		{class: fault.ClassSDC, valid: true},
		{class: fault.ClassMasked, kernel: true},
	}
	res, sweep := aggregateExhaustive(cfg, "crc32", goldenCycles, 42, []uint64{1376}, ep, outcomes)
	c := res.Components[0]
	if c.N != 3 || c.Sites != 2 || c.Population != 200 {
		t.Fatalf("component header %+v", c)
	}
	if c.Counts[fault.ClassMasked] != 2 || c.Counts[fault.ClassSDC] != 1 {
		t.Fatalf("unweighted counts %v", c.Counts)
	}
	if c.WeightedCounts[fault.ClassMasked] != 130 || c.WeightedCounts[fault.ClassSDC] != 70 {
		t.Fatalf("weighted counts %v", c.WeightedCounts)
	}
	var wsum uint64
	for _, w := range c.WeightedCounts {
		wsum += w
	}
	if wsum != c.Population {
		t.Fatalf("weighted counts sum to %d, want population %d", wsum, c.Population)
	}
	if avf := c.AVF(); avf != 70.0/200 {
		t.Fatalf("population AVF %f, want 0.35", avf)
	}
	if c.ValidStruck[fault.ClassSDC] != 1 || c.KernelStruck[fault.ClassMasked] != 1 {
		t.Fatalf("struck maps %v %v", c.ValidStruck, c.KernelStruck)
	}
	s := sweep.Components[0]
	if s.Sites != 2 || s.Windows != 3 || s.Population != 200 || s.MaxWidth != 100 {
		t.Fatalf("sweep summary %+v", s)
	}
	if s.MeanWidth != 200.0/3 {
		t.Fatalf("mean width %f", s.MeanWidth)
	}
	if s.AVF != c.AVF() {
		t.Fatalf("sweep AVF %f vs component %f", s.AVF, c.AVF())
	}
}

// TestExhaustiveValidate pins the sweep mode's configuration surface:
// sampling-only features and non-recorded components are refused up
// front rather than producing a silently wrong population.
func TestExhaustiveValidate(t *testing.T) {
	base := Config{Exhaustive: true, Components: []fault.Component{fault.CompDTLB}}
	if err := base.withDefaults().Validate(); err != nil {
		t.Fatalf("plain exhaustive config refused: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"target margin", func(c *Config) { c.TargetMargin = 0.01 }},
		{"full tlb entries", func(c *Config) { c.TLBFullEntry = true }},
		{"register file", func(c *Config) { c.Components = []fault.Component{fault.CompRegFile} }},
	}
	for _, tc := range bad {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Errorf("%s: exhaustive config accepted", tc.name)
		}
	}
}
