// Slot resolution: the one place a planned injection is decided to be
// predicted by the pre-filter, materialized from its equivalence-class
// representative, or simulated. The in-process engine resolves a
// workload's whole plan across its worker pool; the shard runner
// resolves one shard's range on its single workbench. Both go through
// resolve, so in-process and remote execution cannot drift apart.

package gefin

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"armsefi/internal/bench"
	"armsefi/internal/core/harness"
	"armsefi/internal/core/sched"
	"armsefi/internal/mem"
	"armsefi/internal/obs"
)

// prepared is one workload's campaign state: the workbench (with its
// ladder and liveness log), the fault plan, the component sizes, and the
// pre-filter verdicts and equivalence partition over the whole plan.
// Every field is a pure function of (cfg, workload), so every node of a
// distributed campaign derives the identical state for its shards.
type prepared struct {
	name  string
	wb    *harness.Workbench
	plan  []plannedFault
	sizes []uint64
	ep    *exhaustivePlan // exhaustive sweeps only
	pp    *prunePlan      // pruned campaigns only
	dd    *dedupPlan      // deduplicated sampled campaigns only
}

// prepare builds the workload's workbench and pre-draws (or, for an
// exhaustive sweep, enumerates) its plan, then classifies the plan
// against the liveness log when the pre-filter or dedup is on.
func prepare(cfg Config, spec bench.Spec) (*prepared, error) {
	wb, err := prepareWorkbench(cfg, spec)
	if err != nil {
		return nil, err
	}
	p := &prepared{name: spec.Name, wb: wb}
	if cfg.Exhaustive {
		if p.ep, p.sizes, err = exhaustivePlanFor(cfg, wb); err != nil {
			return nil, err
		}
		p.plan = p.ep.plan
	} else {
		p.plan, p.sizes = planFor(cfg, wb, spec.Name)
	}
	if cfg.Prune {
		p.pp = predictPlan(wb, p.plan)
	}
	// Classes form over the pre-filter's undecided remainder. An
	// exhaustive plan already enumerates one injection per class, so
	// there is nothing left to collapse.
	if cfg.Dedup && !cfg.Exhaustive {
		p.dd = buildDedup(cfg, wb, spec.Name, p.plan, p.pp)
	}
	if testHookPrepared != nil {
		testHookPrepared(p)
	}
	return p, nil
}

// testHookPrepared, when set, sees every prepared workload before it
// resolves; the verify tests use it to corrupt a shortcut.
var testHookPrepared func(*prepared)

// How resolve settled a slot.
const (
	bySim        uint8 = iota // simulated (every slot of a verify run)
	byPrediction              // the pre-filter's verdict
	byDedup                   // the range representative's outcome
)

// execution is how one resolve call runs. The in-process engine passes
// its pool (for clone workbenches), stop controller and progress
// emitter; a shard runner passes none and drains on its one workbench.
// tc and worker tag the trace records the primary workbench emits;
// clones tag theirs worker+1, worker+2, ...
type execution struct {
	pool   *sched.Pool
	sc     *stopController
	em     *emitter
	tc     obs.TraceContext
	worker int
}

// resolve settles plan slots [lo, hi) and returns their outcomes and
// resolutions, indexed from lo. A slot the pre-filter decided resolves
// to its prediction; a class member resolves to the outcome of its
// range representative, the lowest slot of its class inside [lo, hi)
// (for the whole plan, the partition's Rep); every other slot simulates.
// Simulation runs cycle-sorted in rung-sharing batches when the ladder
// is on; outcomes land in their slots, so the order never shows in a
// Result. With cfg.Verify every slot simulates with a provenance probe
// instead, each shortcut that would have fired is checked against the
// simulation, and any disagreement fails the call naming the slot.
func (p *prepared) resolve(cfg Config, lo, hi int, ex execution) ([]outcome, []uint8, error) {
	// tick reports slot i resolved against its component's slot count:
	// uniform for a sampled campaign, the enumerated windows for a sweep.
	tick := func(i int) {
		ci, total := p.plan[i].comp, cfg.FaultsPerComponent
		if p.ep != nil {
			total = p.ep.perComp[ci]
		}
		ex.em.tick(p.name, cfg.Components[ci], total)
	}
	outs := make([]outcome, hi-lo)
	via := make([]uint8, hi-lo)
	order := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		switch {
		case cfg.Verify:
		case p.pp != nil && p.pp.decided[i]:
			via[i-lo] = byPrediction
			if ex.sc.skip(i) {
				continue
			}
			outs[i-lo] = p.pp.outcome(i)
			ex.sc.commit(i, outs[i-lo].class)
			p.pp.emit(cfg, p.wb, p.name, i, p.plan[i], ex.worker, ex.tc)
			tick(i)
			continue
		case p.dd != nil && p.dd.repOf(i, lo) != i:
			via[i-lo] = byDedup // materialized when its representative runs
			continue
		}
		order = append(order, i)
	}
	// With the ladder on, simulation runs sorted by injection cycle
	// (ties by plan slot), so consecutive runs on a worker restore the
	// same or a neighbouring rung and the short early-injection runs
	// cluster instead of straggling.
	if p.wb.Ladder != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return p.plan[order[a]].f.Cycle < p.plan[order[b]].f.Cycle
		})
	}
	batches := batchByRung(p.wb.Ladder, p.plan, order)

	// Claim extra workers up-front (a clone is one kernel boot each) so a
	// boot failure surfaces before any injection runs.
	var clones []*harness.Workbench
	for ex.pool != nil && len(clones) < min(cfg.Workers-1, len(order)-1) {
		ok := ex.pool.TryAcquire()
		cfg.Obs.CloneTry(ok)
		if !ok {
			break
		}
		clone, err := p.wb.Clone()
		if err != nil {
			ex.pool.Release()
			for range clones {
				ex.pool.Release()
			}
			return nil, nil, fmt.Errorf("gefin: %w", err)
		}
		clones = append(clones, clone)
	}

	execCfg := cfg
	execCfg.Provenance = cfg.Provenance || cfg.Verify

	// Workers race on an atomic cursor over the batches, so load balances
	// regardless of per-injection cost while consecutive runs on a worker
	// restore the identical rung image — the copy-on-write DRAM restore
	// then touches only the pages the previous run dirtied.
	var cursor int64
	drain := func(worker int, w *harness.Workbench) {
		ex.em.workerStarted()
		defer ex.em.workerDone()
		// Each worker owns its probe: arrays it taints are its own
		// workbench's, so probes never cross goroutines.
		var probe *mem.Probe
		if execCfg.Provenance {
			probe = new(mem.Probe)
		}
		for {
			n := atomic.AddInt64(&cursor, 1) - 1
			if n >= int64(len(batches)) {
				return
			}
			for _, i := range order[batches[n].lo:batches[n].hi] {
				if ex.sc.skip(i) {
					continue
				}
				o := execPlanned(execCfg, w, p.name, probe, p.plan[i], worker, ex.tc)
				outs[i-lo] = o
				ex.sc.commit(i, o.class)
				tick(i)
				if p.dd == nil || cfg.Verify || p.dd.classOf[i] < 0 {
					continue
				}
				// A representative materializes its outcome onto the later
				// members in range right here on its own worker: members
				// are excluded from the order, so no other goroutine
				// touches them.
				members := p.dd.classes[p.dd.classOf[i]].Members
				for _, m := range members[sort.SearchInts(members, i+1):] {
					if m >= hi {
						break
					}
					if ex.sc.skip(m) {
						continue
					}
					outs[m-lo] = o
					ex.sc.commit(m, o.class)
					p.dd.emit(cfg, p.name, p.plan[m], o, worker, ex.tc)
					tick(m)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for ci, clone := range clones {
		wg.Add(1)
		go func(worker int, clone *harness.Workbench) {
			defer wg.Done()
			defer ex.pool.Release()
			harness.Phased("shard-execution", func() { drain(worker, clone) })
		}(ex.worker+ci+1, clone)
	}
	// The caller's own goroutine drives the primary.
	harness.Phased("shard-execution", func() { drain(ex.worker, p.wb) })
	wg.Wait()

	if cfg.Verify {
		// Every slot simulated; check each shortcut that would have fired,
		// in plan order so the first disagreement reported is stable.
		bad, first := 0, ""
		for i := lo; i < hi; i++ {
			msg := ""
			switch {
			case p.pp != nil && p.pp.decided[i]:
				msg = pruneMismatch(p.plan[i], p.pp.preds[i], outs[i-lo])
			case p.dd != nil:
				if r := p.dd.repOf(i, lo); r != i {
					msg = dedupMismatch(p.plan[i], p.plan[r], outs[r-lo], outs[i-lo])
				}
			}
			if msg != "" {
				if bad == 0 {
					first = fmt.Sprintf("slot %d: %s", i, msg)
				}
				bad++
			}
		}
		if bad > 0 {
			return nil, nil, fmt.Errorf("gefin: verify: %d shortcut verdicts disagree with simulation on %s (first: %s)", bad, p.name, first)
		}
	}
	return outs, via, nil
}
