// Campaign pre-filter glue: classify the pre-drawn plan against the
// workload's liveness log, resolve decided slots without simulation, and
// cross-check predictions against simulated verdicts in verify mode.
// Predictions carry the exact verdict simulation would conclude, so the
// aggregated Workloads stay byte-identical with pruning on or off — the
// predicted/simulated split surfaces only in PruneSummary and in trace
// records tagged predicted=true.

package gefin

import (
	"fmt"
	"time"

	"armsefi/internal/core/ace"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
)

// prunePlan holds the per-slot pre-filter verdicts of one workload.
type prunePlan struct {
	preds   []ace.Prediction
	decided []bool
	summary PruneSummary
}

// predictPlan classifies every planned injection against the workbench's
// liveness log. Prediction is a pure function of (log, fault), so every
// node of a distributed campaign derives identical verdicts.
func predictPlan(wb *harness.Workbench, plan []plannedFault) *prunePlan {
	pp := &prunePlan{
		preds:   make([]ace.Prediction, len(plan)),
		decided: make([]bool, len(plan)),
		summary: PruneSummary{ByMechanism: make(map[string]int)},
	}
	for i, p := range plan {
		pred, ok := ace.Predict(wb.Liveness, p.f)
		if !ok {
			continue
		}
		pp.preds[i], pp.decided[i] = pred, true
		pp.summary.Predicted++
		pp.summary.ByMechanism[pred.Mech.String()]++
	}
	return pp
}

// outcome converts slot i's prediction into the outcome record the
// aggregation consumes — identical to what simulating the fault would
// have produced.
func (pp *prunePlan) outcome(i int) outcome {
	pred := pp.preds[i]
	return outcome{class: pred.Class, valid: pred.Valid, kernel: pred.Kernel, mech: pred.Mech}
}

// emit traces slot i's predicted injection (tagged predicted=true, with
// the golden run's raw outcome fields) and feeds the predicted counter
// grid.
func (pp *prunePlan) emit(cfg Config, wb *harness.Workbench, workload string, i int, p plannedFault, worker int, tc obs.TraceContext) {
	pred := pp.preds[i]
	cfg.Obs.Predicted(workload, p.f.Comp, pred.Mech)
	if !cfg.Obs.On() {
		return
	}
	now := time.Now()
	rec := obs.Record{
		Kind:       obs.KindInjection,
		Workload:   workload,
		Comp:       p.f.Comp,
		Bit:        p.f.Bit,
		Cycle:      p.f.Cycle,
		Worker:     worker,
		ExecCycles: wb.Liveness.Final.Cycles,
		Outcome:    wb.Liveness.Final.Outcome.String(),
		Class:      pred.Class,
		Valid:      pred.Valid,
		Kernel:     pred.Kernel,
		Mechanism:  pred.Mech.String(),
		Predicted:  true,
	}
	tc.Stamp(&rec)
	cfg.Obs.Record(rec, now, now)
}

// pruneMismatch compares a verify-mode prediction against the simulated
// verdict of the same slot and describes the disagreement ("" on match).
// The simulated outcome comes from a provenance run, so o.mech is the
// probe's mechanism verdict.
func pruneMismatch(p plannedFault, pred ace.Prediction, o outcome) string {
	if o.class == pred.Class && o.mech == pred.Mech && o.valid == pred.Valid && o.kernel == pred.Kernel {
		return ""
	}
	return fmt.Sprintf("%v bit=%d cycle=%d: predicted %v/%v valid=%v kernel=%v, simulated %v/%v valid=%v kernel=%v",
		p.f.Comp, p.f.Bit, p.f.Cycle,
		pred.Class, pred.Mech, pred.Valid, pred.Kernel,
		o.class, o.mech, o.valid, o.kernel)
}

// batchSpan is one contiguous range of the execution order whose
// injections restore the same ladder rung.
type batchSpan struct{ lo, hi int }

// maxRungBatch caps a batch so the atomic-cursor load balancing still
// has grains to balance when one rung covers most of the plan.
const maxRungBatch = 64

// batchByRung cuts the cycle-sorted execution order into rung-sharing
// batches: a worker claims a whole batch, so consecutive runs restore
// the identical rung image and the copy-on-write DRAM restore touches
// only the pages the previous run dirtied. A nil ladder degenerates to
// one-slot batches (plain atomic-cursor draining). Purely an execution
// grouping: outcomes still land in plan slots, so Results are unchanged.
func batchByRung(l *soc.Ladder, plan []plannedFault, order []int) []batchSpan {
	batches := make([]batchSpan, 0, len(order)/maxRungBatch+1)
	if l == nil {
		for i := range order {
			batches = append(batches, batchSpan{i, i + 1})
		}
		return batches
	}
	for lo := 0; lo < len(order); {
		rung := l.RungCycleFor(plan[order[lo]].f.Cycle)
		hi := lo + 1
		for hi < len(order) && hi-lo < maxRungBatch && l.RungCycleFor(plan[order[hi]].f.Cycle) == rung {
			hi++
		}
		batches = append(batches, batchSpan{lo, hi})
		lo = hi
	}
	return batches
}
