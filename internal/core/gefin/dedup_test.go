package gefin

import (
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// dedupConfig samples the DTLB heavily enough for the seeded plan to
// collide into shared equivalence classes (seed 5 yields multi-member
// classes on crc32 and matmul at full and -short sample sizes), plus the
// register file, which is never dedupable.
func dedupConfig(seed int64) Config {
	return Config{
		FaultsPerComponent: faultsN(200),
		Seed:               seed,
		Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
	}
}

// TestDedupResultInvariance is the deduplicator's campaign-level
// contract: the aggregated WorkloadResult is byte-identical with dedup
// off or on, at one worker or many, with or without the checkpoint
// ladder, and composed with the ACE pre-filter — materializing a
// representative's outcome onto its class members is purely an execution
// optimisation.
func TestDedupResultInvariance(t *testing.T) {
	for _, workload := range []string{"crc32", "matmul"} {
		cfg := dedupConfig(5)
		cfg.Workers = 1
		ref := runSmall(t, cfg, workload)
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			name    string
			workers int
			every   uint64
			prune   bool
		}{
			{"workers=1", 1, 0, false},
			{"workers=4", 4, 0, false},
			{"ladder", 4, soc.DefaultCheckpointEvery, false},
			{"pruned", 4, soc.DefaultCheckpointEvery, true},
		} {
			dcfg := cfg
			dcfg.Workers = arm.workers
			dcfg.CheckpointEvery = arm.every
			dcfg.Prune = arm.prune
			dcfg.Dedup = true
			res := runSmall(t, dcfg, workload)
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(refJSON) {
				equalComponentResults(t, ref, res) // pinpoint the diff
				t.Fatalf("%s %s: deduped result not byte-identical to plain", workload, arm.name)
			}
		}
	}
}

// TestDedupSummarySplit checks the deduped/simulated bookkeeping: the
// split covers the whole plan, the sampled plan actually collides into
// classes, and the split never leaks into Workloads.
func TestDedupSummarySplit(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := dedupConfig(5).withDefaults()
	cfg.Dedup = true
	res, err := Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dedup == nil {
		t.Fatal("deduped Run returned no DedupSummary")
	}
	s := res.Dedup
	if want := PlanLen(cfg); s.Deduped+s.Simulated != want {
		t.Fatalf("split %d deduped + %d simulated != plan %d", s.Deduped, s.Simulated, want)
	}
	if s.Deduped == 0 || s.Classes == 0 {
		t.Fatalf("sampled plan formed no classes: %+v", s)
	}
	if s.MaxClass < 2 {
		t.Fatalf("max class size %d < 2", s.MaxClass)
	}
	if s.Verified != 0 || s.Mismatches != 0 {
		t.Fatalf("non-shadow run reports verification: %+v", s)
	}
	if f := s.DedupedFraction(); f <= 0 || f >= 1 {
		t.Fatalf("deduped fraction %f out of (0,1)", f)
	}
}
