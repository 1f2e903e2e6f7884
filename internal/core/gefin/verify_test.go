package gefin

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/soc"
)

// verifyCase is one row of the Verify table: a campaign run with Verify
// on at each worker count over each workload, then checked. A Verify run
// simulates each slot with the provenance probe armed and checks
// whichever shortcut would have resolved it.
type verifyCase struct {
	cfg       Config
	workloads []string
	workers   []int
	shard     bool // also run one whole-plan verify shard on crc32
	check     func(t *testing.T, cfg Config, spec bench.Spec, res *Result)
}

func (tc verifyCase) run(t *testing.T) {
	t.Helper()
	cfg := tc.cfg
	cfg.CheckpointEvery = soc.DefaultCheckpointEvery
	cfg.Verify = true
	for _, workload := range tc.workloads {
		spec, _ := bench.ByName(workload)
		for _, workers := range tc.workers {
			t.Run(fmt.Sprintf("%s/workers=%d", workload, workers), func(t *testing.T) {
				wcfg := cfg
				wcfg.Workers = workers
				res, err := Run(wcfg, []bench.Spec{spec}, nil)
				if err != nil {
					t.Fatal(err)
				}
				tc.check(t, wcfg.withDefaults(), spec, res)
			})
		}
	}
	if tc.shard {
		spec, _ := bench.ByName("crc32")
		if _, _, err := NewShardRunner(cfg).RunShard(spec, 0, PlanLen(cfg)); err != nil {
			t.Fatalf("whole-plan verify shard: %v", err)
		}
	}
}

// TestPruneVerifyShadowMode cross-validates the liveness pre-filter
// against ground truth: zero mismatches at one worker and four, on both
// workloads, and on a whole-plan shard.
func TestPruneVerifyShadowMode(t *testing.T) {
	cfg := pruneConfig(2027)
	cfg.Prune = true
	verifyCase{cfg, []string{"crc32", "matmul"}, []int{1, 4}, true, func(t *testing.T, cfg Config, _ bench.Spec, res *Result) {
		s := res.Prune
		if s == nil || s.Predicted == 0 {
			t.Fatal("verify run predicted nothing")
		}
		if s.Verified != s.Predicted || s.Mismatches != 0 {
			t.Fatalf("verified %d/%d with %d mismatches", s.Verified, s.Predicted, s.Mismatches)
		}
		if want := PlanLen(cfg); s.Simulated != want {
			t.Fatalf("verify run simulated %d of %d", s.Simulated, want)
		}
	}}.run(t)
}

// TestDedupVerifyShadowMode cross-validates the equivalence-class
// construction the same way.
func TestDedupVerifyShadowMode(t *testing.T) {
	cfg := dedupConfig(5)
	cfg.Dedup = true
	verifyCase{cfg, []string{"crc32", "matmul"}, []int{1, 4}, true, func(t *testing.T, cfg Config, _ bench.Spec, res *Result) {
		s := res.Dedup
		if s == nil || s.Deduped == 0 {
			t.Fatal("verify run formed no classes")
		}
		if s.Verified != s.Deduped || s.Mismatches != 0 {
			t.Fatalf("verified %d/%d with %d mismatches", s.Verified, s.Deduped, s.Mismatches)
		}
		if want := PlanLen(cfg); s.Simulated != want {
			t.Fatalf("verify run simulated %d of %d", s.Simulated, want)
		}
	}}.run(t)
}

// TestStopMatchesShadowPrefix covers sequential stopping: a verify run
// executes the full plan while computing the same cuts, so its truncated
// aggregation must equal a genuinely stopped run's.
func TestStopMatchesShadowPrefix(t *testing.T) {
	stop := stopConfig()
	verifyCase{stop, []string{"crc32"}, []int{3}, false, func(t *testing.T, _ Config, spec bench.Spec, res *Result) {
		stopped, err := Run(stop, []bench.Spec{spec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if aw, bw := mustJSON(t, stopped.Workloads), mustJSON(t, res.Workloads); string(aw) != string(bw) {
			t.Errorf("stopped Workloads differ from the verify run's truncated aggregation:\n%s\nvs\n%s", aw, bw)
		}
		if !res.Stop.Shadow {
			t.Error("verify run's stop summary must be marked shadow")
		}
		// Every field — cut, looks, margin — is a deterministic function
		// of the identical plan-order prefix, so exact equality holds.
		ac, bc := stopped.Stop.Components, res.Stop.Components
		if len(ac) != len(bc) || len(ac) == 0 {
			t.Fatalf("component summaries: %d vs %d", len(ac), len(bc))
		}
		for i := range ac {
			if ac[i] != bc[i] {
				t.Errorf("cuts differ: %+v vs %+v", ac[i], bc[i])
			}
		}
	}}.run(t)
}

// expectVerifyFailure runs cfg, with every prepared workload passed
// through corrupt first, in process and as one whole-plan shard, and
// requires both to fail verification naming the slot.
func expectVerifyFailure(t *testing.T, cfg Config, spec bench.Spec, corrupt func(*prepared), slot int) {
	t.Helper()
	testHookPrepared = corrupt
	defer func() { testHookPrepared = nil }()
	want := fmt.Sprintf("slot %d:", slot)
	if _, err := Run(cfg, []bench.Spec{spec}, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run: error %v, want one naming %q", err, want)
	}
	if _, _, err := NewShardRunner(cfg).RunShard(spec, 0, PlanLen(cfg)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunShard: error %v, want one naming %q", err, want)
	}
}

// mustPrepare builds the workload state a campaign of cfg resolves.
func mustPrepare(t *testing.T, cfg Config, spec bench.Spec) *prepared {
	t.Helper()
	p, err := prepare(cfg.withDefaults(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestVerifyCatchesCorruptPrediction flips one pre-filter verdict to a
// corrupting class simulation cannot confirm: Verify must fail naming
// that slot.
func TestVerifyCatchesCorruptPrediction(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{
		FaultsPerComponent: 24, Seed: 2027, Components: []fault.Component{fault.CompL1D},
		CheckpointEvery: soc.DefaultCheckpointEvery, Prune: true, Verify: true,
	}
	p := mustPrepare(t, cfg, spec)
	slot := -1
	for i, decided := range p.pp.decided {
		if decided && p.pp.preds[i].Class != fault.ClassSDC {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.Fatal("pre-filter decided nothing")
	}
	expectVerifyFailure(t, cfg, spec, func(p *prepared) { p.pp.preds[slot].Class = fault.ClassSDC }, slot)
}

// TestVerifyCatchesCorruptDedup extends a dedup class with a slot whose
// simulated outcome differs from the class representative's, so the
// outcome the member would materialize is wrong: Verify must fail naming
// that slot.
func TestVerifyCatchesCorruptDedup(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{
		FaultsPerComponent: 100, Seed: 8, Components: []fault.Component{fault.CompDTLB, fault.CompL1D},
		CheckpointEvery: soc.DefaultCheckpointEvery,
	}
	// Ground truth: every slot simulated.
	truth, _, err := NewShardRunner(cfg).RunShard(spec, 0, PlanLen(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dedup, cfg.Verify = true, true
	p := mustPrepare(t, cfg, spec)
	if len(p.dd.classes) == 0 {
		t.Fatal("plan formed no classes")
	}
	rep, slot := p.dd.classes[0].Rep, -1
	for j := rep + 1; j < len(p.plan); j++ {
		if p.dd.classOf[j] < 0 && truth[j] != truth[rep] {
			slot = j
			break
		}
	}
	if slot < 0 {
		t.Fatal("no slot disagrees with the first representative")
	}
	expectVerifyFailure(t, cfg, spec, func(p *prepared) {
		cl := &p.dd.classes[0]
		cl.Members = append(append([]int(nil), cl.Members...), slot)
		sort.Ints(cl.Members)
		p.dd.classOf[slot] = 0
	}, slot)
}

// TestVerifyEnablesLadderCrossCheck: Verify turns on the ladder's
// full-image convergence cross-check; a campaign without it leaves the
// setting alone.
func TestVerifyEnablesLadderCrossCheck(t *testing.T) {
	prev := soc.LadderDebugCompare.Load()
	t.Cleanup(func() { soc.LadderDebugCompare.Store(prev) })
	soc.LadderDebugCompare.Store(false)
	Config{}.withDefaults()
	if soc.LadderDebugCompare.Load() {
		t.Fatal("a campaign without Verify enabled the ladder cross-check")
	}
	Config{Verify: true}.withDefaults()
	if !soc.LadderDebugCompare.Load() {
		t.Fatal("Verify did not enable the ladder cross-check")
	}
}
