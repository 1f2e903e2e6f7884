// Shard execution API of the campaign service: a campaign's pre-drawn
// fault plan is cut into contiguous index ranges ("shards"), each shard
// is executed independently — possibly on another machine — and the
// per-slot outcomes are reassembled in plan order. Because the plan is a
// pure function of the seeded Config and the workload, and every
// injection run is deterministic, the assembled WorkloadResult is
// bit-identical to an uninterrupted in-process run at any shard size,
// shard order, node count, or interruption pattern.

package gefin

import (
	"fmt"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// ShardOutcome is the wire record of one executed injection: everything
// aggregation needs, nothing machine-local. It round-trips through JSON
// losslessly, so shard results can cross process and node boundaries.
type ShardOutcome struct {
	Class  fault.Class `json:"class"`
	Valid  bool        `json:"valid,omitempty"`
	Kernel bool        `json:"kernel,omitempty"`
	// Predicted marks a slot the pre-filter proved masked from the liveness
	// log without simulating it (pruned campaigns only); Mechanism is the
	// predicted masking mechanism. Both fields are bookkeeping for the
	// coordinator's prune split — Class/Valid/Kernel already carry exactly
	// what simulation would have concluded, so assembly ignores them.
	Predicted bool   `json:"predicted,omitempty"`
	Mechanism string `json:"mechanism,omitempty"`
	// Dedup marks a slot materialized from a shard-local equivalence-class
	// representative without its own simulation (deduplicated campaigns
	// only). Bookkeeping for the coordinator's dedup split — the
	// materialized Class/Valid/Kernel are by construction exactly what
	// simulating the slot would have produced, so assembly ignores it.
	Dedup bool `json:"dedup,omitempty"`
}

// ShardMeta carries the per-workload constants aggregation needs. Every
// shard of a workload reports the same meta (the values derive from the
// deterministic golden run), which the assembler cross-checks.
type ShardMeta struct {
	GoldenCycles uint64   `json:"golden_cycles"`
	GoldenInstrs uint64   `json:"golden_instrs"`
	SizeBits     []uint64 `json:"size_bits"`
}

// PlanLen returns the length of the pre-drawn fault plan the Config
// implies for any one workload — components outer, injections inner. It
// needs no machine, so a coordinator can cut shard ranges at submission
// time, before any node has booted a workbench.
func PlanLen(cfg Config) int {
	cfg = cfg.withDefaults()
	return len(cfg.Components) * cfg.FaultsPerComponent
}

// PlanComponents returns the normalised component list and per-component
// sample size of the Config's plan: slot i targets component
// i/perComp in this order. Convergence tallies outside the engine (the
// campaign-service worker) use it to map plan slots back to estimators.
func PlanComponents(cfg Config) (comps []fault.Component, perComp int) {
	cfg = cfg.withDefaults()
	return cfg.Components, cfg.FaultsPerComponent
}

// ShardRunner executes plan shards for one campaign Config, caching one
// prepared workload (boot + golden run + optional checkpoint ladder,
// plan, pre-filter verdicts and dedup partition) per workload so
// consecutive shards of the same workload pay no setup. A runner is
// single-goroutine (one simulated machine per workload); run several
// runners for parallelism.
type ShardRunner struct {
	cfg Config
	// Worker tags trace records emitted during shard runs, so a node's
	// runners are distinguishable in the campaign trace.
	Worker int
	// Ctx is stamped onto every trace record the shard's injections emit
	// (campaign/shard/node/span); the campaign-service worker sets it per
	// assignment. The zero context stamps nothing.
	Ctx     obs.TraceContext
	benches map[string]*prepared
}

// NewShardRunner builds a runner for the campaign Config. The Config is
// normalised exactly like Run normalises it, so shard execution sees the
// same effective knobs as an in-process campaign.
func NewShardRunner(cfg Config) *ShardRunner {
	return &ShardRunner{cfg: cfg.withDefaults(), benches: make(map[string]*prepared)}
}

// RunShard executes plan slots [lo, hi) of the workload and returns their
// outcomes in slot order plus the workload's meta. The first shard of a
// workload pays the setup (kernel boot, golden run, ladder capture,
// liveness replay); later shards reuse it. The range resolves exactly as
// an in-process run resolves the whole plan, with class representatives
// elected inside the range: a class split across shards simulates once
// per shard — redundant but outcome-identical, so assembly stays
// bit-exact and every shard stays independently leasable.
func (r *ShardRunner) RunShard(spec bench.Spec, lo, hi int) ([]ShardOutcome, ShardMeta, error) {
	p, ok := r.benches[spec.Name]
	if !ok {
		var err error
		if p, err = prepare(r.cfg, spec); err != nil {
			return nil, ShardMeta{}, err
		}
		r.benches[spec.Name] = p
	}
	if lo < 0 || hi > len(p.plan) || lo >= hi {
		return nil, ShardMeta{}, fmt.Errorf("gefin: shard [%d,%d) out of plan range [0,%d)", lo, hi, len(p.plan))
	}
	outs, via, err := p.resolve(r.cfg, lo, hi, execution{tc: r.Ctx, worker: r.Worker})
	if err != nil {
		return nil, ShardMeta{}, err
	}
	wire := make([]ShardOutcome, len(outs))
	for k, o := range outs {
		wire[k] = ShardOutcome{Class: o.class, Valid: o.valid, Kernel: o.kernel}
		switch via[k] {
		case byPrediction:
			wire[k].Predicted, wire[k].Mechanism = true, o.mech.String()
		case byDedup:
			wire[k].Dedup = true
		}
	}
	meta := ShardMeta{
		GoldenCycles: p.wb.Golden.Cycles,
		GoldenInstrs: p.wb.Golden.Instructions,
		SizeBits:     append([]uint64(nil), p.sizes...),
	}
	return wire, meta, nil
}

// Release drops the cached workbench of a finished workload (or all of
// them for the empty string), freeing its simulated DRAM and ladder.
func (r *ShardRunner) Release(workload string) {
	if workload == "" {
		r.benches = make(map[string]*prepared)
		return
	}
	delete(r.benches, workload)
}

// shardSummaries derives a workload's prune and dedup splits from its
// assembled shard outcomes, counted like the in-process engine counts
// them: predictions and materializations over the whole plan, simulations
// only within the sequential-stopping cuts (nil: the full plan) unless
// Verify executed the whole plan. Class-count statistics stay zero:
// shards elect local representatives, so per-shard class tables do not
// reassemble into one global partition. The splits never ride inside
// WorkloadResult, which stays byte-identical with the shortcuts on or off.
func shardSummaries(cfg Config, outs []ShardOutcome, cuts []int) (*PruneSummary, *DedupSummary) {
	ps := &PruneSummary{ByMechanism: make(map[string]int)}
	ds := &DedupSummary{}
	for i, o := range outs {
		kept := cfg.Verify || cuts == nil || i%cfg.FaultsPerComponent < cuts[i/cfg.FaultsPerComponent]
		switch {
		case o.Predicted:
			ps.Predicted++
			ps.ByMechanism[o.Mechanism]++
		case o.Dedup:
			ds.Deduped++
			if kept {
				ps.Simulated++
			}
		case kept:
			ps.Simulated++
			ds.Simulated++
		}
	}
	return ps, ds
}

// assemble reassembles one workload from per-slot shard outcomes covering
// the full plan, in plan order. With a target margin set it replays the
// stop controller over the outcomes — the cuts are a pure function of the
// plan-order prefix — and aggregates within the cuts, returning them and
// the workload's stop summary too.
func assemble(cfg Config, workload string, meta ShardMeta, outs []ShardOutcome) (*WorkloadResult, []int, *StopSummary, error) {
	if want := len(cfg.Components) * cfg.FaultsPerComponent; len(outs) != want {
		return nil, nil, nil, fmt.Errorf("gefin: assemble %s: %d outcomes, want %d", workload, len(outs), want)
	}
	if len(meta.SizeBits) != len(cfg.Components) {
		return nil, nil, nil, fmt.Errorf("gefin: assemble %s: %d component sizes, want %d", workload, len(meta.SizeBits), len(cfg.Components))
	}
	outcomes := make([]outcome, len(outs))
	for i, o := range outs {
		outcomes[i] = outcome{class: o.Class, valid: o.Valid, kernel: o.Kernel}
	}
	cfg.Obs = nil // the replay is bookkeeping, not a second campaign to observe
	sc := newStopController(cfg, workload, len(outs), obs.TraceContext{})
	for i, o := range outs {
		sc.commit(i, o.Class)
	}
	cuts := sc.cuts()
	wr := aggregate(cfg, workload, meta.GoldenCycles, meta.GoldenInstrs, meta.SizeBits, outcomes, cuts)
	return wr, cuts, sc.finish(), nil
}

// AssembleResult builds a campaign Result from each workload's meta and
// plan-order shard outcomes (parallel slices in workload order) — the
// campaign service's assembler. It runs the exact aggregation of the
// in-process engine, stopping rule included, so Workloads and Stop are
// byte-identical to an uninterrupted run of the same Config and seed; the
// prune and dedup splits merge in workload order beside them, as Run
// merges its own. The Result echoes cfg as given.
func AssembleResult(cfg Config, workloads []string, metas []ShardMeta, outs [][]ShardOutcome) (*Result, error) {
	dc := cfg.withDefaults()
	res := &Result{Config: cfg}
	if dc.Prune {
		res.Prune = &PruneSummary{ByMechanism: make(map[string]int)}
	}
	if dc.Dedup {
		res.Dedup = &DedupSummary{}
	}
	if dc.TargetMargin > 0 {
		res.Stop = &StopSummary{}
	}
	for i, w := range workloads {
		wr, cuts, stop, err := assemble(dc, w, metas[i], outs[i])
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, *wr)
		ps, ds := shardSummaries(dc, outs[i], cuts)
		if res.Prune != nil {
			res.Prune.merge(ps)
		}
		if res.Dedup != nil {
			res.Dedup.merge(ds)
		}
		if res.Stop != nil {
			res.Stop.merge(stop)
		}
	}
	return res, nil
}
