package gefin

import (
	"encoding/json"
	"reflect"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// runShards executes the given plan ranges through one ShardRunner, in
// the order given, JSON round-tripping every shard's outcomes (the wire
// format shard results actually cross) and cross-checking that every
// shard reports the same meta.
func runShards(t *testing.T, cfg Config, spec bench.Spec, cuts [][2]int) ([]ShardOutcome, ShardMeta) {
	t.Helper()
	r := NewShardRunner(cfg)
	outs := make([]ShardOutcome, PlanLen(cfg))
	var meta ShardMeta
	for _, c := range cuts {
		part, m, err := r.RunShard(spec, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		var back []ShardOutcome
		if err := json.Unmarshal(mustJSON(t, part), &back); err != nil {
			t.Fatal(err)
		}
		copy(outs[c[0]:c[1]], back)
		if meta.GoldenCycles == 0 {
			meta = m
		} else if !reflect.DeepEqual(meta, m) {
			t.Fatalf("shard meta diverged: %+v vs %+v", meta, m)
		}
	}
	return outs, meta
}

// shardArm is one row of the shard-assembly table: a shortcut stack
// whose in-process and sharded results must both equal the ladder-only
// run.
type shardArm struct {
	name         string
	prune, dedup bool
}

// checkShardAssembly pins the campaign service's determinism foundation
// across the shortcut stack: a plan executed as shards — one whole-plan
// shard, or odd-sized shards claimed in reverse order as a resumed or
// multi-node campaign would — reassembles into the in-process
// WorkloadResult bit-for-bit, and the in-process result of every arm
// equals the ladder-only run. The wire outcomes carry the
// predicted/deduped split, and a whole-plan shard elects the same class
// representatives as an in-process run, so its split equals the
// in-process Result.Prune/Result.Dedup.
func checkShardAssembly(t *testing.T, arms ...shardArm) {
	t.Helper()
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	// Seed 8 draws DTLB collisions into six dedup classes, one of which
	// survives the pre-filter; the L1D slots are mostly predicted.
	base := Config{
		FaultsPerComponent: 100,
		Seed:               8,
		Components:         []fault.Component{fault.CompDTLB, fault.CompL1D},
		CheckpointEvery:    soc.DefaultCheckpointEvery,
	}
	n := PlanLen(base)
	if n != 2*base.FaultsPerComponent {
		t.Fatalf("PlanLen = %d", n)
	}
	ladder, err := Run(base, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustJSON(t, ladder.Workloads[0])
	var odd [][2]int
	for lo := n - (n-1)%7 - 1; lo >= 0; lo -= 7 {
		odd = append(odd, [2]int{lo, min(lo+7, n)})
	}
	for _, arm := range arms {
		cfg := base
		cfg.Prune, cfg.Dedup = arm.prune, arm.dedup
		in := ladder
		if arm.prune || arm.dedup {
			if in, err = Run(cfg, []bench.Spec{spec}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got := mustJSON(t, in.Workloads[0]); string(got) != string(ref) {
			t.Fatalf("%s: in-process result not byte-identical to the ladder-only run", arm.name)
		}
		for _, geo := range []struct {
			name string
			cuts [][2]int
		}{
			{"whole", [][2]int{{0, n}}},
			{"odd", odd},
		} {
			outs, meta := runShards(t, cfg, spec, geo.cuts)
			full, err := AssembleResult(cfg, []string{spec.Name}, []ShardMeta{meta}, [][]ShardOutcome{outs})
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, full.Workloads[0]); string(got) != string(ref) {
				t.Fatalf("%s %s: assembled result diverges from the in-process run:\n in-process %s\n assembled  %s", arm.name, geo.name, ref, got)
			}
			ps, ds := shardSummaries(cfg.withDefaults(), outs, nil)
			if ps.Predicted+ps.Simulated != n || ds.Deduped+ds.Simulated+ps.Predicted != n {
				t.Fatalf("%s %s: wire split %+v / %+v over plan %d", arm.name, geo.name, ps, ds, n)
			}
			if (ps.Predicted > 0) != arm.prune {
				t.Fatalf("%s %s: %d slots predicted", arm.name, geo.name, ps.Predicted)
			}
			if !arm.dedup && ds.Deduped > 0 {
				t.Fatalf("%s %s: %d slots deduped with dedup off", arm.name, geo.name, ds.Deduped)
			}
			if (full.Prune != nil) != arm.prune || (full.Dedup != nil) != arm.dedup ||
				(arm.prune && full.Prune.Predicted != ps.Predicted) || (arm.dedup && full.Dedup.Deduped != ds.Deduped) {
				t.Fatalf("%s %s: AssembleResult splits %+v / %+v, shard outcomes %+v / %+v",
					arm.name, geo.name, full.Prune, full.Dedup, ps, ds)
			}
			if geo.name != "whole" {
				continue
			}
			if arm.prune && (ps.Predicted != in.Prune.Predicted || !reflect.DeepEqual(ps.ByMechanism, in.Prune.ByMechanism)) {
				t.Fatalf("%s: whole-plan shard predicted %d %v, in-process %d %v",
					arm.name, ps.Predicted, ps.ByMechanism, in.Prune.Predicted, in.Prune.ByMechanism)
			}
			if arm.dedup && (ds.Deduped == 0 || ds.Deduped != in.Dedup.Deduped) {
				t.Fatalf("%s: whole-plan shard deduped %d, in-process %d", arm.name, ds.Deduped, in.Dedup.Deduped)
			}
		}
	}
}

// TestShardAssemblyMatchesRun is the ladder-only row of the
// shard-assembly table.
func TestShardAssemblyMatchesRun(t *testing.T) {
	checkShardAssembly(t, shardArm{"ladder", false, false})
}

// TestPruneShardInvariance is the pre-filter row: predicted slots cross
// the wire and reassemble like simulated ones.
func TestPruneShardInvariance(t *testing.T) {
	checkShardAssembly(t, shardArm{"prune", true, false})
}

// TestDedupShardInvariance is the dedup rows, alone (many classes) and
// stacked on the pre-filter (one class survives it): shard-local
// representatives reassemble into the in-process result.
func TestDedupShardInvariance(t *testing.T) {
	checkShardAssembly(t, shardArm{"dedup", false, true}, shardArm{"prune+dedup", true, true})
}

// TestShardRunnerBounds pins range validation and workbench reuse.
func TestShardRunnerBounds(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{FaultsPerComponent: 2, Seed: 9, Components: []fault.Component{fault.CompRegFile}}
	r := NewShardRunner(cfg)
	if _, _, err := r.RunShard(spec, -1, 1); err == nil {
		t.Error("negative lo accepted")
	}
	if _, _, err := r.RunShard(spec, 0, PlanLen(cfg)+1); err == nil {
		t.Error("hi past plan end accepted")
	}
	if _, _, err := r.RunShard(spec, 1, 1); err == nil {
		t.Error("empty shard accepted")
	}
	if _, _, err := r.RunShard(spec, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.benches) != 1 {
		t.Fatalf("benches = %d", len(r.benches))
	}
	r.Release(spec.Name)
	if len(r.benches) != 0 {
		t.Fatalf("benches = %d after Release", len(r.benches))
	}
}

// TestAssembleValidation pins the assembler's coverage checks.
func TestAssembleValidation(t *testing.T) {
	cfg := Config{FaultsPerComponent: 2, Seed: 1, Components: []fault.Component{fault.CompRegFile}}
	meta := ShardMeta{GoldenCycles: 10, SizeBits: []uint64{1024}}
	assemble := func(outs []ShardOutcome) error {
		_, err := AssembleResult(cfg, []string{"x"}, []ShardMeta{meta}, [][]ShardOutcome{outs})
		return err
	}
	if assemble(make([]ShardOutcome, 1)) == nil {
		t.Error("short outcome set accepted")
	}
	meta.SizeBits = nil
	if assemble(make([]ShardOutcome, 2)) == nil {
		t.Error("missing sizes accepted")
	}
}
