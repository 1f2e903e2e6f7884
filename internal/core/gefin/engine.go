// Campaign execution engine: fault sampling is split from fault execution
// so that the sample depends only on the seeded RNG while execution can be
// sharded across a pool of workbenches. The determinism contract — the
// same Seed yields the same Result at any Workers value — follows from
// pre-drawing the whole per-component fault list in the sequential
// engine's exact RNG order, recording every outcome into its plan slot,
// and aggregating the slots in plan order.

package gefin

import (
	"fmt"
	"math/rand"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/core/sched"
	"armsefi/internal/mem"
	"armsefi/internal/obs"
)

// plannedFault is one pre-drawn injection of the campaign plan.
type plannedFault struct {
	comp int // index into cfg.Components
	f    fault.Fault
}

// outcome is the record of one executed injection. mech is the
// provenance mechanism verdict when one was computed (provenance or
// verify runs with an armed probe); aggregation ignores it.
// cycles and outstr carry the raw run observables so a deduplicated
// member's trace record can reproduce its representative's skeleton.
type outcome struct {
	class  fault.Class
	valid  bool
	kernel bool
	mech   fault.Mechanism
	cycles uint64
	outstr string
}

// sideSummaries carries one workload's optional side reports — the parts
// of a Result that live beside Workloads rather than inside them.
type sideSummaries struct {
	prune *PruneSummary
	dedup *DedupSummary
	sweep *SweepSummary
	stop  *StopSummary
}

// sampleFaults pre-draws the full campaign plan for one workload,
// consuming the RNG in exactly the order the sequential engine did:
// components outer, injections inner, with the TLB region re-draw nested
// between the bit and cycle draws.
func sampleFaults(cfg Config, sizes []uint64, goldenCycles uint64, rng *rand.Rand) []plannedFault {
	plan := make([]plannedFault, 0, len(cfg.Components)*cfg.FaultsPerComponent)
	for ci, comp := range cfg.Components {
		size := sizes[ci]
		for i := 0; i < cfg.FaultsPerComponent; i++ {
			bit := uint64(rng.Int63n(int64(size)))
			if !cfg.TLBFullEntry && (comp == fault.CompITLB || comp == fault.CompDTLB) {
				// GeFIN targets the physical page and permission bits of
				// the TLB entries (Section V-B).
				entry := bit / mem.TLBEntryBits
				bit = entry*mem.TLBEntryBits +
					mem.TLBPhysRegionStart + uint64(rng.Intn(mem.TLBPhysRegionBits))
			}
			plan = append(plan, plannedFault{comp: ci, f: fault.Fault{
				Comp:  comp,
				Bit:   bit,
				Cycle: uint64(rng.Int63n(int64(goldenCycles))),
			}})
		}
	}
	return plan
}

// prepareWorkbench builds the workload's workbench (and its checkpoint
// ladder and pre-filter liveness log when configured) — the setup shared
// by the in-process engine and the campaign-service shard runner.
func prepareWorkbench(cfg Config, spec bench.Spec) (*harness.Workbench, error) {
	wb, err := harness.Build(cfg.Preset, cfg.Model, spec, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("gefin: %w", err)
	}
	// Verify cross-checks every ladder convergence verdict of this
	// campaign's machines; clones inherit the setting.
	wb.Machine.LadderCrossCheck = cfg.Verify
	// One instrumented golden replay per workload captures the ladder and
	// records the liveness log the pre-filter, the equivalence-class
	// partitioner and the exhaustive enumerator classify against, as
	// configured; clones share both, so the cost is paid once.
	live := cfg.Prune || cfg.Dedup || cfg.Exhaustive
	if err := wb.Instrument(cfg.CheckpointEvery, cfg.MaxCheckpoints, live, cfg.WarmCaches); err != nil {
		return nil, fmt.Errorf("gefin: %w", err)
	}
	if wb.Ladder != nil {
		cfg.Obs.LadderMemory(spec.Name, wb.Ladder.MemoryBytes(), wb.Ladder.SharedBytes())
	}
	cfg.Obs.LivenessMemory(spec.Name, wb.Liveness)
	return wb, nil
}

// planFor pre-draws the workload's full fault plan from the campaign
// seed. The plan is a pure function of (cfg, workload name, component
// sizes, golden cycle count), so every node of a distributed campaign
// derives the identical plan independently.
func planFor(cfg Config, wb *harness.Workbench, name string) ([]plannedFault, []uint64) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashString(name))))
	sizes := make([]uint64, len(cfg.Components))
	for ci, comp := range cfg.Components {
		sizes[ci] = fault.SizeBits(wb.Machine, comp)
	}
	return sampleFaults(cfg, sizes, wb.Golden.Cycles, rng), sizes
}

// execPlanned executes one pre-drawn injection on the workbench,
// emitting trace records and metrics when an observer is attached. It is
// the single per-injection execution path: the in-process drain loop and
// the shard runner both go through it, so a shard executed on a remote
// node takes exactly the code path of a local run. tc stamps distributed
// trace context (campaign/shard/node/span) onto emitted records; the
// zero context stamps nothing.
func execPlanned(cfg Config, wb *harness.Workbench, workload string, probe *mem.Probe, p plannedFault, worker int, tc obs.TraceContext) outcome {
	// The probe (non-nil with provenance on) runs even without an
	// observer, so the determinism contract (Results byte-identical with
	// provenance on or off) is exercised by the probe itself, not by
	// tracing.
	start := time.Now()
	class, ctx, raw, ls := wb.RunFaultProv(p.f, cfg.WarmCaches, probe)
	stop := time.Now()
	o := outcome{class: class, valid: ctx.LineValid, kernel: ctx.KernelOwned(), cycles: raw.Cycles, outstr: raw.Outcome.String()}
	if probe.Armed() {
		o.mech = fault.MechanismOf(class, raw, probe)
	}
	if !cfg.Obs.On() {
		return o
	}
	cfg.Obs.LadderRun(ls)
	rec := obs.Record{
		Kind:       obs.KindInjection,
		Workload:   workload,
		Comp:       p.f.Comp,
		Bit:        p.f.Bit,
		Cycle:      p.f.Cycle,
		Worker:     worker,
		ExecCycles: raw.Cycles,
		Outcome:    o.outstr,
		Class:      class,
		Valid:      o.valid,
		Kernel:     o.kernel,
		FFCycles:   ls.FastForwarded,
		EarlyExit:  ls.EarlyExit,
	}
	if probe.Armed() {
		cfg.Obs.Mechanism(workload, p.f.Comp, o.mech)
		rec.Mechanism = o.mech.String()
		if ev, ok := probe.FirstRead(); ok {
			rec.ReadCycle, rec.ReadPC, rec.ReadReg = ev.Cycle, ev.PC, ev.Reg
		}
		rec.ProvEvents = append([]mem.ProbeEvent(nil), probe.Events()...)
		rec.ProvDropped = probe.Dropped()
		rec.DivergedAt, rec.ConvergedAt = ls.DivergedAt, ls.ConvergedAt
	}
	tc.Stamp(&rec)
	cfg.Obs.Record(rec, start, stop)
	return o
}

// aggregate folds per-plan-slot outcomes into the workload result, always
// in plan order (components outer, injections inner), so the aggregation
// is identical whether the outcomes were produced by one process or
// assembled from shards executed on many nodes. cuts (nil for the full
// plan) truncates each component to its sequential-stopping prefix:
// slots at or past a component's cut are discarded — including outcomes
// workers raced past the cut before it committed — so the truncated
// aggregation is a pure function of the plan-order prefix.
func aggregate(cfg Config, workload string, goldenCycles, goldenInstrs uint64, sizes []uint64, outcomes []outcome, cuts []int) *WorkloadResult {
	out := &WorkloadResult{
		Workload:     workload,
		Scale:        cfg.Scale,
		GoldenCycles: goldenCycles,
		GoldenInstrs: goldenInstrs,
	}
	for ci, comp := range cfg.Components {
		n := cfg.FaultsPerComponent
		if cuts != nil {
			n = cuts[ci]
		}
		out.Components = append(out.Components, ComponentResult{
			Comp:         comp,
			SizeBits:     sizes[ci],
			N:            n,
			Counts:       make(map[fault.Class]int, fault.NumClasses),
			ValidStruck:  make(map[fault.Class]int, fault.NumClasses),
			KernelStruck: make(map[fault.Class]int, fault.NumClasses),
		})
	}
	for i, o := range outcomes {
		ci := i / cfg.FaultsPerComponent
		if cuts != nil && i%cfg.FaultsPerComponent >= cuts[ci] {
			continue
		}
		res := &out.Components[ci]
		res.Counts[o.class]++
		if o.valid {
			res.ValidStruck[o.class]++
		}
		if o.kernel {
			res.KernelStruck[o.class]++
		}
	}
	return out
}

// runWorkload prepares the workload, resolves its whole plan on the
// primary workbench plus as many clones as the pool grants, and
// aggregates the outcomes in plan order. The side summaries carry
// whichever optional reports the configuration produced.
func runWorkload(cfg Config, spec bench.Spec, pool *sched.Pool, em *emitter) (*WorkloadResult, sideSummaries, error) {
	var side sideSummaries
	p, err := prepare(cfg, spec)
	if err != nil {
		return nil, side, err
	}
	em.addTotal(len(p.plan))

	// The commit controller streams plan-order tallies into the
	// convergence estimators and, with a target margin set, decides each
	// component's truncation point. Nil when neither is wanted.
	sc := newStopController(cfg, spec.Name, len(p.plan), obs.TraceContext{})
	outcomes, via, err := p.resolve(cfg, 0, len(p.plan), execution{pool: pool, sc: sc, em: em})
	if err != nil {
		return nil, side, err
	}
	side.stop = sc.finish()
	cuts := sc.cuts()

	// Early stopping truncates the plan; report the deterministic count
	// of simulations within the cuts, not however many slots workers
	// raced past a cut before it committed. A verify run simulates all.
	simulated := 0
	for i, v := range via {
		if v == bySim && (cfg.Verify || cuts == nil || i%cfg.FaultsPerComponent < cuts[i/cfg.FaultsPerComponent]) {
			simulated++
		}
	}
	if p.pp != nil {
		s := p.pp.summary
		s.Simulated = simulated
		if cfg.Verify {
			s.Verified = s.Predicted
		}
		side.prune = &s
	}
	if p.dd != nil {
		s := p.dd.summary
		s.Simulated = simulated
		if cfg.Verify {
			s.Verified = s.Deduped
		}
		side.dedup = &s
	}
	if p.ep != nil {
		res, sweep := aggregateExhaustive(cfg, spec.Name, p.wb.Golden.Cycles, p.wb.Golden.Instructions, p.sizes, p.ep, outcomes)
		side.sweep = sweep
		return res, side, nil
	}
	return aggregate(cfg, spec.Name, p.wb.Golden.Cycles, p.wb.Golden.Instructions, p.sizes, outcomes, cuts), side, nil
}

// emitter adapts the shared meter to gefin progress events, adding the
// per-(workload, component) completion counts, and feeds every meter
// snapshot into the observability gauges. All mutable state is only
// touched inside Meter.Tick's lock, which also serialises the user
// callback.
type emitter struct {
	meter *sched.Meter
	fn    Progress
	ob    *obs.Observer
	done  map[compKey]int
}

type compKey struct {
	workload string
	comp     fault.Component
}

// newEmitter returns nil when there is neither a callback nor an
// observer: a nil emitter's methods are no-ops, so the hot path pays
// nothing for unused progress.
func newEmitter(fn Progress, ob *obs.Observer) *emitter {
	if fn == nil && !ob.On() {
		return nil
	}
	return &emitter{meter: sched.NewMeter(), fn: fn, ob: ob, done: make(map[compKey]int)}
}

func (e *emitter) addTotal(n int) {
	if e != nil {
		e.meter.AddTotal(n)
	}
}

func (e *emitter) workerStarted() {
	if e != nil {
		e.meter.WorkerStarted()
	}
}

func (e *emitter) workerDone() {
	if e != nil {
		e.meter.WorkerDone()
	}
}

func (e *emitter) tick(workload string, comp fault.Component, totalPerComp int) {
	if e == nil {
		return
	}
	e.meter.Tick(func(s sched.Snapshot) {
		e.ob.MeterTick(s)
		if e.fn == nil {
			return
		}
		key := compKey{workload, comp}
		e.done[key]++
		e.fn(ProgressEvent{
			Workload:      workload,
			Comp:          comp,
			Done:          e.done[key],
			Total:         totalPerComp,
			CampaignDone:  s.Done,
			CampaignTotal: s.Total,
			Workers:       s.Workers,
			Rate:          s.Rate,
			ETA:           s.ETA,
		})
	})
}
