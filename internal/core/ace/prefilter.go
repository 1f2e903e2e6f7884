// Campaign pre-filter: the ACE liveness argument applied per planned
// injection instead of per structure. Where the classic analysis in this
// package integrates un-ACE time into an AVF estimate, the pre-filter
// asks the sharper per-fault question — "is THIS bit at THIS cycle
// provably un-ACE?" — against the event-exact liveness log of one
// instrumented golden replay (soc.ReplayGolden). A decided prediction
// carries the same mechanism verdict the provenance probe would have
// produced, so pruned campaigns stay byte-identical to simulated ones;
// anything the log cannot prove stays undecided and is simulated.
package ace

import (
	"armsefi/internal/core/fault"
	"armsefi/internal/mem"
	"armsefi/internal/soc"
)

// Prediction is the pre-filter's verdict for one planned injection. All
// predictions are provably Masked; the mechanism distinguishes why,
// matching fault.MechanismOf's taxonomy exactly.
type Prediction struct {
	// Mech is the masking mechanism simulation would have concluded.
	Mech fault.Mechanism
	// Class is always fault.ClassMasked: a decided pre-filter verdict
	// means the corrupted bits provably never influence execution.
	Class fault.Class
	// Valid and Kernel mirror the injection-context observables
	// (fault.ContextOf): whether the struck slot held live content at the
	// flip instant, and whether that content was kernel-owned.
	Valid  bool
	Kernel bool
}

// Predict classifies one planned injection against the liveness log. The
// second return reports whether the log proves the fault masked; false
// means the fault must be simulated. Register-file faults are always
// undecided (the log covers the memory hierarchy), as are TLB faults in
// the virtual-tag or valid bits, covering reads, dirty evictions, and
// anything hitting a structure whose event recording overflowed.
func Predict(log *soc.LivenessLog, f fault.Fault) (Prediction, bool) {
	var q mem.LiveQuery
	kernelFromAddr := false
	switch f.Comp {
	case fault.CompL1I:
		q, kernelFromAddr = log.L1I.QueryBit(f.Bit, f.Cycle), true
	case fault.CompL1D:
		q, kernelFromAddr = log.L1D.QueryBit(f.Bit, f.Cycle), true
	case fault.CompL2:
		q, kernelFromAddr = log.L2.QueryBit(f.Bit, f.Cycle), true
	case fault.CompITLB:
		q = log.ITLB.QueryBit(f.Bit, f.Cycle)
	case fault.CompDTLB:
		q = log.DTLB.QueryBit(f.Bit, f.Cycle)
	default:
		return Prediction{}, false
	}
	var mech fault.Mechanism
	switch q.Verdict {
	case mem.LiveNeverRead:
		mech = fault.MechNeverRead
	case mem.LiveOverwritten:
		mech = fault.MechOverwritten
	case mem.LiveEvictedClean:
		mech = fault.MechEvictedClean
	case mem.LiveLatent:
		mech = fault.MechLatentCorrupt
	default:
		return Prediction{}, false
	}
	p := Prediction{Mech: mech, Class: fault.ClassMasked, Valid: q.Valid}
	if kernelFromAddr && q.Valid {
		p.Kernel = soc.OwnerOf(q.LineAddr).KernelOwned()
	}
	return p, true
}
