package beam

import (
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
)

// beamStopConfig budgets enough strikes per chain that a loose margin
// genuinely truncates: boundaries every 8 strikes, 0.35 half-width.
func beamStopConfig() Config {
	return Config{
		Seed:                3,
		BeamHours:           1,
		StrikesPerComponent: 40,
		TargetMargin:        0.35,
		StopCheckEvery:      8,
	}
}

func beamJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBeamStopWorkerInvariance: a chain is a self-contained sequential
// session, so its cut is a pure function of its own strike sequence and
// the stopped campaign is byte-identical at any worker count.
func TestBeamStopWorkerInvariance(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	seq := beamStopConfig()
	seq.Workers = 1
	par := beamStopConfig()
	par.Workers = 3
	a, err := Run(seq, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(par, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if aw, bw := beamJSON(t, a.Workloads), beamJSON(t, b.Workloads); aw != bw {
		t.Errorf("stopped Workloads differ across worker counts:\n%s\nvs\n%s", aw, bw)
	}
	if as, bs := beamJSON(t, a.Stop), beamJSON(t, b.Stop); as != bs {
		t.Errorf("stop summaries differ across worker counts:\n%s\nvs\n%s", as, bs)
	}
}

// TestBeamStopMatchesShadow cross-checks the prefix property: a shadow
// run simulates every strike, computes the same cuts, and emits the
// truncated re-weighted result — byte-identical Workloads to the
// genuinely stopped run.
func TestBeamStopMatchesShadow(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	stopped := beamStopConfig()
	shadow := beamStopConfig()
	shadow.Verify = true
	a, err := Run(stopped, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shadow, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if aw, bw := beamJSON(t, a.Workloads), beamJSON(t, b.Workloads); aw != bw {
		t.Errorf("stopped Workloads differ from shadow run:\n%s\nvs\n%s", aw, bw)
	}
	if !b.Stop.Shadow {
		t.Error("shadow summary must be marked")
	}
	if len(a.Stop.Chains) != len(b.Stop.Chains) {
		t.Fatalf("chain summaries: %d vs %d", len(a.Stop.Chains), len(b.Stop.Chains))
	}
	for i := range a.Stop.Chains {
		if a.Stop.Chains[i] != b.Stop.Chains[i] {
			t.Errorf("cuts differ: %+v vs %+v", a.Stop.Chains[i], b.Stop.Chains[i])
		}
	}
}

// TestBeamStopSummaryShape checks the summary arithmetic, that the loose
// margin saved strikes, and that the truncated chains re-weighted their
// events (the stratified estimator's totals stay on the same scale).
func TestBeamStopSummaryShape(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	res, err := Run(beamStopConfig(), []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stop
	if s == nil {
		t.Fatal("stop summary missing")
	}
	if s.TargetMargin != 0.35 || s.Confidence != 0.99 {
		t.Errorf("rule echo = %v @ %v", s.TargetMargin, s.Confidence)
	}
	if s.Planned-s.Executed != s.Saved {
		t.Errorf("saved arithmetic: %d - %d != %d", s.Planned, s.Executed, s.Saved)
	}
	if s.Saved <= 0 {
		t.Errorf("loose margin saved no strikes (executed %d of %d)", s.Executed, s.Planned)
	}
	w := res.Workloads[0]
	if w.SimulatedStrikes != s.Executed {
		t.Errorf("simulated strikes %d != summary executed %d", w.SimulatedStrikes, s.Executed)
	}
	total := 0
	for _, n := range w.StrikeCounts {
		total += n
	}
	if total != w.SimulatedStrikes {
		t.Errorf("strike counts sum %d != simulated %d", total, w.SimulatedStrikes)
	}
	for _, c := range s.Chains {
		if c.Planned != 40 {
			t.Errorf("%v: planned %d", c.Comp, c.Planned)
		}
		if c.Stopped != (c.Executed < c.Planned) {
			t.Errorf("%v: stopped flag inconsistent: %+v", c.Comp, c)
		}
		if c.Stopped && c.Margin > 0.35 {
			t.Errorf("%v: stopped with achieved margin %v above target", c.Comp, c.Margin)
		}
		if c.Executed%8 != 0 && c.Executed != c.Planned {
			t.Errorf("%v: cut %d not at a check boundary", c.Comp, c.Executed)
		}
	}
}

// TestBeamStrikeCountsBaseline: the raw class tallies are recorded on
// ordinary campaigns too (fitcompare's beam-side Poisson intervals need
// them) and sum to the simulated strikes.
func TestBeamStrikeCountsBaseline(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{Seed: 3, BeamHours: 1, StrikesPerComponent: 4}
	w, err := RunWorkload(cfg, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range w.StrikeCounts {
		total += n
	}
	if total != w.SimulatedStrikes {
		t.Errorf("strike counts sum %d != simulated %d", total, w.SimulatedStrikes)
	}
	if w.StrikeCounts[fault.ClassMasked] != w.MaskedStrikes {
		t.Errorf("masked count %d != MaskedStrikes %d", w.StrikeCounts[fault.ClassMasked], w.MaskedStrikes)
	}
}
