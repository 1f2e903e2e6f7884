package gefin

import (
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
)

// stopConfig is a campaign small enough to run in tests but large enough
// that a loose target margin genuinely truncates some components: with
// check boundaries every 10 injections, skewed class fractions meet a
// 0.30 half-width well before the 45-injection plan runs out.
func stopConfig() Config {
	return Config{
		FaultsPerComponent: 45,
		Seed:               77,
		Components:         []fault.Component{fault.CompRegFile, fault.CompL1D, fault.CompDTLB},
		TargetMargin:       0.30,
		StopCheckEvery:     10,
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStopWorkerInvariance pins the centrepiece contract of sequential
// early stopping: the truncation point is a pure function of the
// plan-order outcome prefix, so a stopped campaign — Workloads AND the
// stop summary — is byte-identical at any worker count.
func TestStopWorkerInvariance(t *testing.T) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("workload crc32 missing")
	}
	seq := stopConfig()
	seq.Workers = 1
	par := stopConfig()
	par.Workers = 4
	a, err := Run(seq, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(par, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if aw, bw := mustJSON(t, a.Workloads), mustJSON(t, b.Workloads); string(aw) != string(bw) {
		t.Errorf("stopped Workloads differ across worker counts:\n%s\nvs\n%s", aw, bw)
	}
	if as, bs := mustJSON(t, a.Stop), mustJSON(t, b.Stop); string(as) != string(bs) {
		t.Errorf("stop summaries differ across worker counts:\n%s\nvs\n%s", as, bs)
	}
}

// TestStopSummaryShape checks the summary's arithmetic and that the loose
// margin genuinely saved injections — the point of the feature.
func TestStopSummaryShape(t *testing.T) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("workload crc32 missing")
	}
	res, err := Run(stopConfig(), []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stop
	if s == nil {
		t.Fatal("stop summary missing")
	}
	if s.TargetMargin != 0.30 || s.Confidence != 0.99 {
		t.Errorf("rule echo = %v @ %v", s.TargetMargin, s.Confidence)
	}
	if s.Planned-s.Executed != s.Saved {
		t.Errorf("saved arithmetic: %d - %d != %d", s.Planned, s.Executed, s.Saved)
	}
	if s.Saved <= 0 {
		t.Errorf("loose margin saved no injections (executed %d of %d)", s.Executed, s.Planned)
	}
	exec := 0
	for _, c := range s.Components {
		exec += c.Executed
		if c.Planned != 45 {
			t.Errorf("%v: planned %d", c.Comp, c.Planned)
		}
		if c.Executed <= 0 || c.Executed > c.Planned {
			t.Errorf("%v: executed %d out of range", c.Comp, c.Executed)
		}
		if c.Stopped != (c.Executed < c.Planned) {
			t.Errorf("%v: stopped flag inconsistent: %+v", c.Comp, c)
		}
		if c.Stopped && c.Margin > 0.30 {
			t.Errorf("%v: stopped with achieved margin %v above target", c.Comp, c.Margin)
		}
		if c.Executed%10 != 0 && c.Executed != c.Planned {
			t.Errorf("%v: cut %d not at a check boundary", c.Comp, c.Executed)
		}
	}
	if exec != s.Executed {
		t.Errorf("component executed sum %d != total %d", exec, s.Executed)
	}
	// The aggregation reflects the truncation: each component's N is its
	// executed count and the class counts sum to it.
	wl := res.Workloads[0]
	for i, c := range wl.Components {
		if c.N != s.Components[i].Executed {
			t.Errorf("%v: result N %d != executed %d", c.Comp, c.N, s.Components[i].Executed)
		}
		total := 0
		for _, n := range c.Counts {
			total += n
		}
		if total != c.N {
			t.Errorf("%v: counts sum %d != N %d", c.Comp, total, c.N)
		}
	}
}

// TestStopDisabledIsInert re-checks the baseline contract: without a
// target margin the controller contributes nothing — the result matches
// a plain campaign byte for byte and carries no summary.
func TestStopDisabledIsInert(t *testing.T) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("workload crc32 missing")
	}
	plain := stopConfig()
	plain.TargetMargin = 0
	plain.StopCheckEvery = 0
	res, err := Run(plain, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != nil {
		t.Errorf("disabled rule produced a summary: %+v", res.Stop)
	}
	base, err := Run(Config{FaultsPerComponent: 45, Seed: 77,
		Components: []fault.Component{fault.CompRegFile, fault.CompL1D, fault.CompDTLB}}, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if aw, bw := mustJSON(t, res.Workloads), mustJSON(t, base.Workloads); string(aw) != string(bw) {
		t.Errorf("disabled stop rule perturbed the campaign:\n%s\nvs\n%s", aw, bw)
	}
}
