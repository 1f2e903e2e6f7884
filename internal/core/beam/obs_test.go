package beam

import (
	"bytes"
	"fmt"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// TestBeamTraceMatchesResult is the strike-trace consistency contract: the
// per-strike JSONL records recompute to exactly the engine's own strike
// accounting and modeled event sums — including bit-identical
// floating-point weights — at any worker count.
func TestBeamTraceMatchesResult(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Seed: 9, BeamHours: 1, StrikesPerComponent: 3, Workers: workers,
				Obs: obs.New(obs.Options{TraceWriter: &buf})}
			w, err := RunWorkload(cfg, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := cfg.Obs.Close(); err != nil {
				t.Fatal(err)
			}
			sum, err := obs.ReadSummary(&buf)
			if err != nil {
				t.Fatal(err)
			}

			strikes, masked := 0, 0
			for _, comp := range fault.Components() {
				c := sum.Component(obs.KindStrike, "crc32", comp)
				strikes += c.Records
				masked += c.Counts[fault.ClassMasked]
			}
			if strikes != w.SimulatedStrikes {
				t.Errorf("trace has %d strikes, result simulated %d", strikes, w.SimulatedStrikes)
			}
			if masked != w.MaskedStrikes {
				t.Errorf("trace has %d masked strikes, result counted %d", masked, w.MaskedStrikes)
			}
			modeled := sum.ModeledEvents("crc32")
			for _, cls := range fault.Classes() {
				if modeled[cls] != w.ModeledEvents[cls] {
					t.Errorf("%v: trace models %.17g events, result %.17g",
						cls, modeled[cls], w.ModeledEvents[cls])
				}
			}
		})
	}
}

// TestBeamTracingPreservesResults asserts instrumentation is purely
// additive for the beam engine too: the traced campaign's Result is
// bit-identical to the untraced one.
func TestBeamTracingPreservesResults(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{Seed: 9, BeamHours: 1, StrikesPerComponent: 3}
	plain, err := RunWorkload(cfg, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg.Obs = obs.New(obs.Options{TraceWriter: &buf})
	traced, err := RunWorkload(cfg, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cls := range fault.Classes() {
		if plain.Events[cls] != traced.Events[cls] {
			t.Errorf("%v: events %v vs %v", cls, plain.Events[cls], traced.Events[cls])
		}
		if plain.ModeledEvents[cls] != traced.ModeledEvents[cls] {
			t.Errorf("%v: modeled %v vs %v", cls, plain.ModeledEvents[cls], traced.ModeledEvents[cls])
		}
	}
	if plain.MaskedStrikes != traced.MaskedStrikes || plain.SimulatedStrikes != traced.SimulatedStrikes {
		t.Error("strike accounting changed under tracing")
	}
}

// TestBeamRunTraceSpecOrder: at Workers 1 the workloads run strictly in
// spec order, so every trace record of workload i precedes every record
// of workload i+1 and the trace no longer depends on goroutine
// scheduling.
func TestBeamRunTraceSpecOrder(t *testing.T) {
	names := []string{"crc32", "qsort", "matmul"}
	specs, err := bench.Lookup(names)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := Config{Seed: 4, BeamHours: 1, StrikesPerComponent: 1, Workers: 1,
		Obs: obs.New(obs.Options{TraceWriter: &buf})}
	if _, err := Run(cfg, specs, nil); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for i, rec := range recs {
		for at < len(names) && rec.Workload != names[at] {
			at++
		}
		if at == len(names) {
			t.Fatalf("record %d (%s, %s) out of spec order %v", i, rec.Kind, rec.Workload, names)
		}
	}
}
