package gefin

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// runTraced executes a traced campaign and returns both the engine Result
// and the recomputed view of its JSONL trace.
func runTraced(t *testing.T, cfg Config, workload string) (*WorkloadResult, *obs.Summary) {
	t.Helper()
	spec, ok := bench.ByName(workload)
	if !ok {
		t.Fatalf("workload %s missing", workload)
	}
	var buf bytes.Buffer
	cfg.Obs = obs.New(obs.Options{TraceWriter: &buf})
	res, err := RunWorkload(cfg, spec, nil)
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
	return res, sum
}

// TestTraceMatchesResult is the trace<->Result consistency contract: the
// per-class counts recomputed from the JSONL trace equal the engine's own
// aggregation exactly, whether the campaign ran sequentially or sharded
// across four workers.
func TestTraceMatchesResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Workers = workers
			res, sum := runTraced(t, cfg, "crc32")

			if got := sum.Kind(obs.KindInjection).Records; got != len(res.Components)*cfg.FaultsPerComponent {
				t.Fatalf("trace has %d injection records, campaign ran %d",
					got, len(res.Components)*cfg.FaultsPerComponent)
			}
			for _, cr := range res.Components {
				c := sum.Component(obs.KindInjection, "crc32", cr.Comp)
				if c.Records != cr.N {
					t.Errorf("%v: %d trace records, result N %d", cr.Comp, c.Records, cr.N)
				}
				for _, cls := range fault.Classes() {
					if c.Counts[cls] != cr.Counts[cls] {
						t.Errorf("%v/%v: trace %d, result %d",
							cr.Comp, cls, c.Counts[cls], cr.Counts[cls])
					}
				}
			}
		})
	}
}

// TestTraceStrikeContext checks the per-record Valid/Kernel context against
// the result's ValidStruck/KernelStruck tallies — the trace must carry the
// full injection lifecycle, not just the final class.
func TestTraceStrikeContext(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	var buf bytes.Buffer
	cfg.Obs = obs.New(obs.Options{TraceWriter: &buf})
	spec, _ := bench.ByName("qsort")
	res, err := RunWorkload(cfg, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	valid := make(map[fault.Component]map[fault.Class]int)
	kernel := make(map[fault.Component]map[fault.Class]int)
	for _, rec := range recs {
		if rec.Kind != obs.KindInjection {
			continue // convergence records stream alongside injections
		}
		if rec.ExecCycles == 0 {
			t.Fatalf("record without execution cycles: %+v", rec)
		}
		if rec.Outcome == "" {
			t.Fatalf("record without raw outcome: %+v", rec)
		}
		if rec.Valid {
			if valid[rec.Comp] == nil {
				valid[rec.Comp] = make(map[fault.Class]int)
			}
			valid[rec.Comp][rec.Class]++
		}
		if rec.Kernel {
			if kernel[rec.Comp] == nil {
				kernel[rec.Comp] = make(map[fault.Class]int)
			}
			kernel[rec.Comp][rec.Class]++
		}
	}
	for _, cr := range res.Components {
		for _, cls := range fault.Classes() {
			if valid[cr.Comp][cls] != cr.ValidStruck[cls] {
				t.Errorf("%v/%v: trace valid %d, result %d",
					cr.Comp, cls, valid[cr.Comp][cls], cr.ValidStruck[cls])
			}
			if kernel[cr.Comp][cls] != cr.KernelStruck[cls] {
				t.Errorf("%v/%v: trace kernel %d, result %d",
					cr.Comp, cls, kernel[cr.Comp][cls], cr.KernelStruck[cls])
			}
		}
	}
}

// TestTracingPreservesResults asserts the observability layer is purely
// additive: an instrumented campaign produces the bit-identical Result of
// an uninstrumented one.
func TestTracingPreservesResults(t *testing.T) {
	plain := runSmall(t, smallConfig(), "crc32")
	traced, _ := runTraced(t, smallConfig(), "crc32")
	equalComponentResults(t, plain, traced)
}

// TestRunTracedMultiWorkload exercises the top-level engine: concurrent
// workloads interleave their records in one trace, and the per-workload
// recomputation still matches each workload's Result.
func TestRunTracedMultiWorkload(t *testing.T) {
	var specs []bench.Spec
	for _, name := range []string{"crc32", "qsort"} {
		s, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		specs = append(specs, s)
	}
	var buf bytes.Buffer
	cfg := Config{
		FaultsPerComponent: faultsN(10),
		Seed:               42,
		Workers:            4,
		Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
		Obs:                obs.New(obs.Options{TraceWriter: &buf}),
	}
	res, err := Run(cfg, specs, nil)
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
	for _, w := range res.Workloads {
		for _, cr := range w.Components {
			c := sum.Component(obs.KindInjection, w.Workload, cr.Comp)
			if c.Records != cr.N {
				t.Errorf("%s/%v: %d trace records, result N %d", w.Workload, cr.Comp, c.Records, cr.N)
			}
			for _, cls := range fault.Classes() {
				if c.Counts[cls] != cr.Counts[cls] {
					t.Errorf("%s/%v/%v: trace %d, result %d",
						w.Workload, cr.Comp, cls, c.Counts[cls], cr.Counts[cls])
				}
			}
		}
	}
}

// TestLivenessMemoryPublished: preparing a pruning workload publishes its
// liveness log's retained event bytes and overflowed ways per structure
// on the metrics registry, next to the ladder memory.
func TestLivenessMemoryPublished(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{Prune: true, Obs: obs.New(obs.Options{})}.withDefaults()
	wb, err := prepareWorkbench(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Obs.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	log := wb.Liveness
	for _, s := range []struct {
		comp        fault.Component
		bytes, over int
	}{
		{fault.CompL1I, log.L1I.EventBytes(), log.L1I.Overflowed()},
		{fault.CompL1D, log.L1D.EventBytes(), log.L1D.Overflowed()},
		{fault.CompL2, log.L2.EventBytes(), log.L2.Overflowed()},
		{fault.CompITLB, log.ITLB.EventBytes(), log.ITLB.Overflowed()},
		{fault.CompDTLB, log.DTLB.EventBytes(), log.DTLB.Overflowed()},
	} {
		if s.bytes == 0 {
			t.Errorf("%v: no event bytes retained", s.comp)
		}
		for name, v := range map[string]int{
			"armsefi_liveness_event_bytes":     s.bytes,
			"armsefi_liveness_overflowed_ways": s.over,
		} {
			line := fmt.Sprintf("%s{workload=\"crc32\",comp=%q} %d\n", name, s.comp.String(), v)
			if !strings.Contains(text, line) {
				t.Errorf("metrics lack %q", line)
			}
		}
	}
}

// TestRunTraceSpecOrder: at Workers 1 the workloads run strictly in
// spec order, so every trace record of workload i precedes every record
// of workload i+1 and the trace no longer depends on goroutine
// scheduling.
func TestRunTraceSpecOrder(t *testing.T) {
	names := []string{"crc32", "qsort", "matmul"}
	specs, err := bench.Lookup(names)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := Config{FaultsPerComponent: 1, Seed: 4, Workers: 1,
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
