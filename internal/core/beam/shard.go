// Shard execution API of the campaign service: a beam campaign shards at
// the component-chain boundary. Each chain is a self-contained live-board
// session — its own RNG stream seeded from (campaign seed, workload,
// component), starting from a fresh steady state — so chains can execute
// on different machines without changing any chain's physics. In-process
// and sharded runs share prepare, runChain and assemble, so the merged
// WorkloadResult is bit-identical to an uninterrupted in-process run at
// any node count or interruption pattern.

package beam

import (
	"fmt"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
)

// ShardsPerWorkload is the number of shards a beam workload decomposes
// into: one strike chain per injectable component, in fault.Components()
// order.
const ShardsPerWorkload = fault.NumComponents

// ChainOutcome is the record of one executed component chain, in-process
// and on the wire alike. It round-trips through JSON losslessly (Go
// prints float64s with exact round-trip precision), so chain results can
// cross node boundaries without perturbing the bit-identical merge.
type ChainOutcome struct {
	Events             map[fault.Class]float64 `json:"events"`
	Masked             int                     `json:"masked"`
	Sims               int                     `json:"sims"`
	TotalMismatches    uint64                  `json:"total_mismatches,omitempty"`
	WeightedMismatches float64                 `json:"weighted_mismatches,omitempty"`
	// Counts tallies the chain's strikes by final class (raw, unweighted;
	// Sims is their sum). Planned, Stopped, Looks and Margin report the
	// sequential stopping rule's verdict when the campaign set a target
	// margin (Sims is then the truncated strike count).
	Counts  map[fault.Class]int `json:"counts,omitempty"`
	Planned int                 `json:"planned,omitempty"`
	Stopped bool                `json:"stopped,omitempty"`
	Looks   int                 `json:"looks,omitempty"`
	Margin  float64             `json:"margin,omitempty"`
}

// ShardMeta carries the deterministic per-workload constants the
// assembler needs; every shard of a workload reports the same values.
type ShardMeta struct {
	GoldenCycles uint64  `json:"golden_cycles"`
	ExecSeconds  float64 `json:"exec_seconds"`
	Executions   float64 `json:"executions"`
	Fluence      float64 `json:"fluence"`
	CacheSlack   float64 `json:"cache_slack"`
	PerComp      int     `json:"per_comp"`
}

// ShardRunner executes component-chain shards for one campaign Config,
// caching one prepared workbench per workload. Single-goroutine; run
// several runners for parallelism.
type ShardRunner struct {
	cfg Config
	// Worker tags trace records emitted during chain runs.
	Worker int
	// Ctx is stamped onto every strike record the chain emits
	// (campaign/shard/node/span); the campaign-service worker sets it per
	// assignment. The zero context stamps nothing.
	Ctx obs.TraceContext
	// Conv, when set, receives the chains' streaming convergence
	// estimates (the campaign-service worker shares one registry across
	// its runners and ships the snapshots in telemetry batches).
	Conv    *obs.ConvRegistry
	benches map[string]*shardBench
}

type shardBench struct {
	wb   *harness.Workbench
	meta ShardMeta
}

// NewShardRunner builds a runner for the campaign Config, normalised
// exactly like Run normalises it.
func NewShardRunner(cfg Config) *ShardRunner {
	return &ShardRunner{cfg: cfg.withDefaults(), benches: make(map[string]*shardBench)}
}

// RunShard executes the workload's strike chain for component index comp
// (into fault.Components() order) and returns its outcome plus the
// workload meta. The first shard of a workload pays the workbench setup;
// later shards reuse it.
func (r *ShardRunner) RunShard(spec bench.Spec, comp int) (*ChainOutcome, ShardMeta, error) {
	b, ok := r.benches[spec.Name]
	if !ok {
		wb, meta, err := prepare(r.cfg, spec)
		if err != nil {
			return nil, ShardMeta{}, err
		}
		b = &shardBench{wb: wb, meta: meta}
		r.benches[spec.Name] = b
	}
	comps := fault.Components()
	if comp < 0 || comp >= len(comps) {
		return nil, ShardMeta{}, fmt.Errorf("beam: chain shard %d out of component range [0,%d)", comp, len(comps))
	}
	return runChain(r.cfg, b.wb, spec, comps[comp], b.meta, r.Conv, nil, r.Worker, r.Ctx), b.meta, nil
}

// assemble is the one merge of a workload's component chains, which must
// cover all components in fault.Components() order. It folds them in
// that order with a fixed class order, so the floating-point
// accumulation is identical at every worker count and across in-process
// vs. sharded execution, then applies the platform overlay. With a
// target margin it also returns the workload's stop summary.
func assemble(cfg Config, workload string, meta ShardMeta, chains []*ChainOutcome) (*WorkloadResult, *StopSummary, error) {
	if len(chains) != ShardsPerWorkload {
		return nil, nil, fmt.Errorf("beam: assemble %s: %d chains, want %d", workload, len(chains), ShardsPerWorkload)
	}
	res := &WorkloadResult{
		Workload:      workload,
		Scale:         cfg.Scale,
		GoldenCycles:  meta.GoldenCycles,
		ExecSeconds:   meta.ExecSeconds,
		Executions:    meta.Executions,
		Fluence:       meta.Fluence,
		CacheSlack:    meta.CacheSlack,
		Events:        make(map[fault.Class]float64, fault.NumClasses),
		ModeledEvents: make(map[fault.Class]float64, fault.NumClasses),
		StrikeCounts:  make(map[fault.Class]int, fault.NumClasses),
	}
	var stop *StopSummary
	if cfg.TargetMargin > 0 {
		stop = &StopSummary{TargetMargin: cfg.TargetMargin, Confidence: cfg.Confidence, Shadow: cfg.Verify}
	}
	comps := fault.Components()
	for i, c := range chains {
		if c == nil {
			return nil, nil, fmt.Errorf("beam: assemble %s: missing chain %d", workload, i)
		}
		res.SimulatedStrikes += c.Sims
		res.MaskedStrikes += c.Masked
		res.TotalMismatches += c.TotalMismatches
		res.WeightedMismatches += c.WeightedMismatches
		for _, cls := range fault.Classes() {
			if v, ok := c.Events[cls]; ok {
				res.Events[cls] += v
				res.ModeledEvents[cls] += v
			}
			if n := c.Counts[cls]; n > 0 {
				res.StrikeCounts[cls] += n
			}
		}
		if stop != nil {
			stop.Chains = append(stop.Chains, StopChain{
				Workload: workload,
				Comp:     comps[i],
				Planned:  c.Planned,
				Executed: c.Sims,
				Looks:    c.Looks,
				Margin:   c.Margin,
				Stopped:  c.Stopped,
			})
			stop.Planned += c.Planned
			stop.Executed += c.Sims
		}
	}
	if stop != nil {
		stop.Saved = stop.Planned - stop.Executed
	}

	// Platform overlay: strikes into unmodelled board structures. The
	// overlay costs nothing to evaluate, so it contributes its expected
	// event count directly; the Monte-Carlo variance stays where the
	// simulation is (the modeled strikes).
	res.Events[fault.ClassSysCrash] += res.Fluence * cfg.Platform.SysCrash
	res.Events[fault.ClassAppCrash] += res.Fluence * cfg.Platform.AppCrash
	res.Events[fault.ClassAppCrash] += res.Fluence * cfg.Platform.Checker * res.CacheSlack
	return res, stop, nil
}

// AssembleWorkload reassembles one workload result from its
// component-chain outcomes, bit-identical to an uninterrupted run.
func AssembleWorkload(cfg Config, workload string, meta ShardMeta, chains []*ChainOutcome) (*WorkloadResult, error) {
	res, _, err := assemble(cfg.withDefaults(), workload, meta, chains)
	return res, err
}

// AssembleResult builds a campaign Result from each workload's meta and
// chain outcomes (parallel slices in workload order). Run and the
// campaign service's assembler both end here, so a remote campaign's
// Workloads and Stop are byte-identical to an in-process run's. The
// Result echoes cfg as given.
func AssembleResult(cfg Config, workloads []string, metas []ShardMeta, chains [][]*ChainOutcome) (*Result, error) {
	dc := cfg.withDefaults()
	res := &Result{Config: cfg}
	if dc.TargetMargin > 0 {
		// The stop summary merges in workload order, outside Workloads.
		res.Stop = &StopSummary{}
	}
	for i, w := range workloads {
		wr, stop, err := assemble(dc, w, metas[i], chains[i])
		if err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, *wr)
		res.Stop.merge(stop)
	}
	return res, nil
}
