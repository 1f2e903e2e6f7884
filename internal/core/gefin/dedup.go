// Equivalence-class deduplication glue: partition the pre-drawn plan's
// dedupable injections into outcome-equivalence classes (same fault
// site, same inter-event quiescent window — see internal/core/equiv),
// simulate the canonical representative of each class, and materialize
// its outcome onto every member. Materialized outcomes are by
// construction exactly what simulating the member would have produced,
// so the aggregated Workloads stay byte-identical with deduplication on
// or off — the class bookkeeping surfaces only in DedupSummary and in
// trace records tagged dedup=true.

package gefin

import (
	"fmt"
	"sort"
	"time"

	"armsefi/internal/core/equiv"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
)

// dedupPlan holds one workload's equivalence-class partition.
type dedupPlan struct {
	classes []equiv.Class
	// classOf maps each plan slot to its class index (-1 for slots
	// outside any multi-member class).
	classOf []int
	summary DedupSummary
}

// buildDedup partitions the plan against the workbench's liveness log,
// excluding slots the pre-filter already decided (pp non-nil): a decided
// slot resolves to its predicted verdict without simulation, so classing
// it could only shadow a representative that must still run. Both the
// partition and the decided set are pure functions of the deterministic
// liveness replay and the pre-drawn plan, so every node of a distributed
// campaign derives identical classes for its shard ranges.
func buildDedup(cfg Config, wb *harness.Workbench, workload string, plan []plannedFault, pp *prunePlan) *dedupPlan {
	faults := make([]fault.Fault, len(plan))
	for i, p := range plan {
		faults[i] = p.f
	}
	var eligible func(int) bool
	if pp != nil {
		eligible = func(i int) bool { return !pp.decided[i] }
	}
	dd := &dedupPlan{classOf: make([]int, len(plan))}
	dd.classes = equiv.Partition(wb.Liveness, faults, eligible)
	for i := range dd.classOf {
		dd.classOf[i] = -1
	}
	for ci, cl := range dd.classes {
		for _, m := range cl.Members {
			dd.classOf[m] = ci
		}
	}
	st := equiv.StatsOf(dd.classes)
	dd.summary = DedupSummary{Classes: st.Classes, Deduped: st.Deduped, MaxClass: st.MaxClass}
	if cfg.Obs.On() {
		sizes := make([]int, len(dd.classes))
		for ci, cl := range dd.classes {
			sizes[ci] = len(cl.Members)
		}
		cfg.Obs.DedupClasses(workload, sizes)
	}
	return dd
}

// repOf returns the representative of slot i within a plan range
// starting at lo: the lowest member of i's class at or after lo (i itself
// for a slot in no class). For the whole plan it is the class's Rep.
func (dd *dedupPlan) repOf(i, lo int) int {
	ci := dd.classOf[i]
	if ci < 0 {
		return i
	}
	members := dd.classes[ci].Members
	return members[sort.SearchInts(members, lo)]
}

// emit traces one materialized member injection: the member's own fault
// coordinates carrying the representative's outcome skeleton, tagged
// dedup=true, and feeds the dedup counter grid.
func (dd *dedupPlan) emit(cfg Config, workload string, p plannedFault, rep outcome, worker int, tc obs.TraceContext) {
	cfg.Obs.Deduped(workload, p.f.Comp)
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
		ExecCycles: rep.cycles,
		Outcome:    rep.outstr,
		Class:      rep.class,
		Valid:      rep.valid,
		Kernel:     rep.kernel,
		Dedup:      true,
	}
	if rep.mech != 0 {
		rec.Mechanism = rep.mech.String()
	}
	tc.Stamp(&rec)
	cfg.Obs.Record(rec, now, now)
}

// dedupMismatch compares a verify-mode member's simulated outcome
// against its representative's and describes the disagreement ("" on
// match). Both outcomes come from provenance runs, so the mechanism
// verdicts compare too.
func dedupMismatch(member, rep plannedFault, want, got outcome) string {
	if got.class == want.class && got.mech == want.mech && got.valid == want.valid && got.kernel == want.kernel {
		return ""
	}
	return fmt.Sprintf("%v bit=%d cycle=%d (rep cycle=%d): representative %v/%v valid=%v kernel=%v, member %v/%v valid=%v kernel=%v",
		member.f.Comp, member.f.Bit, member.f.Cycle, rep.f.Cycle,
		want.class, want.mech, want.valid, want.kernel,
		got.class, got.mech, got.valid, got.kernel)
}
