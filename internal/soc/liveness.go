// Liveness recording for the campaign pre-filter: during the
// instrumented golden replay (ReplayGolden, checkpoint.go) recorders
// attached to every cache and TLB produce the immutable LivenessLog the
// ACE-style analysis queries to classify planned injections without
// simulating them.
//
// The replay runs the machine's one cycle loop (Machine.loop), which
// stamps every recorded event with the top-of-cycle value — the exact
// instant at which the same loop fires an injection. An injection at
// cycle F therefore lands before every event stamped >= F and after
// every event stamped < F, which is what makes the log's verdicts exact
// rather than approximate.

package soc

import "armsefi/internal/mem"

// LivenessLog is the queryable result of one instrumented golden replay:
// per-structure liveness recordings plus the replay's Result (which must
// equal the golden Result — the harness validates this).
type LivenessLog struct {
	// Warm records which restore mode the replay ran under; it must match
	// the campaign's, like the ladder's.
	Warm bool
	// Final is the replay's complete Result.
	Final Result

	L1I, L1D, L2 *mem.CacheLiveness
	ITLB, DTLB   *mem.TLBLiveness
}

// attachLiveness starts liveness recording on every cache and TLB,
// stamped by the machine's cycle-loop clock; detachLiveness stops
// recording.
func (m *Machine) attachLiveness(warm bool) *LivenessLog {
	log := &LivenessLog{Warm: warm}
	log.L1I = m.Mem.L1I.AttachLiveness(&m.now)
	log.L1D = m.Mem.L1D.AttachLiveness(&m.now)
	log.L2 = m.Mem.L2.AttachLiveness(&m.now)
	log.ITLB = m.Mem.ITLB.AttachLiveness(&m.now)
	log.DTLB = m.Mem.DTLB.AttachLiveness(&m.now)
	return log
}

func (m *Machine) detachLiveness() {
	m.Mem.L1I.DetachLiveness()
	m.Mem.L1D.DetachLiveness()
	m.Mem.L2.DetachLiveness()
	m.Mem.ITLB.DetachLiveness()
	m.Mem.DTLB.DetachLiveness()
}
