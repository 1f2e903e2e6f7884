// Deterministic sequential early stopping: a campaign-wide commit
// controller serializes per-slot outcomes back into plan order, feeds the
// streaming convergence estimators, and — when a target margin is set —
// truncates each component's plan at the first check boundary where every
// class estimator meets the margin under the alpha-spending rule.
//
// The truncation point is a pure function of the plan-order outcome
// prefix: outcomes commit out of order (workers race on the execution
// permutation) but are buffered until the contiguous plan-order prefix
// reaches them, and the sequential rule is evaluated only on complete
// prefixes at fixed boundaries. Every worker count therefore derives the
// identical cut, and the truncated aggregation is byte-identical to the
// same plan-order prefix of a full run. Outcomes raced past the cut are
// discarded by the truncated aggregation.

package gefin

import (
	"sync"
	"sync/atomic"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
	"armsefi/internal/stats"
)

// DefaultStopCheckEvery is the default plan-order check-boundary spacing
// (injections per component between sequential looks).
const DefaultStopCheckEvery = 50

// StopComponent reports one workload x component's sequential-stopping
// outcome.
type StopComponent struct {
	Workload string          `json:"workload"`
	Comp     fault.Component `json:"comp"`
	// Planned and Executed count the component's plan slots before and
	// after truncation; Looks the sequential evaluations taken.
	Planned  int `json:"planned"`
	Executed int `json:"executed"`
	Looks    int `json:"looks"`
	// Margin is the achieved margin at the campaign's plain confidence:
	// the widest Wilson half-width across the component's class
	// estimators (the binding one for the stop decision).
	Margin float64 `json:"margin"`
	// Stopped reports whether the sequential rule truncated the
	// component before its full plan.
	Stopped bool `json:"stopped"`
}

// StopSummary reports what the sequential stopping rule did to a
// campaign. Like PruneSummary it lives beside Workloads, never inside
// them: a stopped Result's Workloads are byte-identical to the same
// plan-order prefix of a full run, and the summary is the part that
// differs.
type StopSummary struct {
	TargetMargin float64 `json:"target_margin"`
	Confidence   float64 `json:"confidence"`
	// Planned, Executed, and Saved count plan slots across the summary's
	// scope: drawn, kept after truncation, and cut away.
	Planned  int `json:"planned"`
	Executed int `json:"executed"`
	Saved    int `json:"saved"`
	// Shadow marks a run that executed the full plan (Config.Verify)
	// while computing the same cuts — the cross-check mode CI diffs
	// against a genuinely stopped run.
	Shadow     bool            `json:"shadow,omitempty"`
	Components []StopComponent `json:"components,omitempty"`
}

// merge folds another summary into s (components append in call order).
func (s *StopSummary) merge(o *StopSummary) {
	if o == nil {
		return
	}
	s.TargetMargin = o.TargetMargin
	s.Confidence = o.Confidence
	s.Shadow = o.Shadow
	s.Planned += o.Planned
	s.Executed += o.Executed
	s.Saved += o.Saved
	s.Components = append(s.Components, o.Components...)
}

// stopController is one workload's commit controller. A nil controller
// is inert: campaigns without a target margin or an observer never pay
// for it.
type stopController struct {
	rule     stats.SeqRule
	every    int
	perComp  int
	shadow   bool
	workload string
	comps    []fault.Component
	ob       *obs.Observer
	conv     *obs.ConvRegistry
	tc       obs.TraceContext

	// cut is each component's committed truncation point (-1 until the
	// rule fires). Written once under mu; read lock-free by skip() on
	// the worker hot path.
	cut []atomic.Int32

	mu      sync.Mutex
	done    []bool        // per plan slot: outcome committed
	classes []fault.Class // committed class per slot
	next    []int         // per comp: contiguous plan-order prefix length
	look    []int         // per comp: sequential looks taken
	counts  [][]int       // per comp: class tallies over the committed prefix
}

// newStopController builds the controller for one workload, or nil when
// neither early stopping nor convergence observability is wanted. An
// exhaustive sweep never gets one: its plan is not uniform per component
// (the controller's slot-to-component indexing assumes FaultsPerComponent
// slots each), and measuring the population leaves nothing to estimate.
func newStopController(cfg Config, workload string, planLen int, tc obs.TraceContext) *stopController {
	rule := stats.SeqRule{TargetMargin: cfg.TargetMargin, Confidence: cfg.Confidence}
	if cfg.Exhaustive || (!rule.Enabled() && !cfg.Obs.On()) {
		return nil
	}
	every := cfg.StopCheckEvery
	if every <= 0 {
		every = DefaultStopCheckEvery
	}
	sc := &stopController{
		rule:     rule,
		every:    every,
		perComp:  cfg.FaultsPerComponent,
		shadow:   cfg.Verify,
		workload: workload,
		comps:    cfg.Components,
		ob:       cfg.Obs,
		conv:     obs.NewConvRegistry(rule),
		tc:       tc,
		cut:      make([]atomic.Int32, len(cfg.Components)),
		done:     make([]bool, planLen),
		classes:  make([]fault.Class, planLen),
		next:     make([]int, len(cfg.Components)),
		look:     make([]int, len(cfg.Components)),
		counts:   make([][]int, len(cfg.Components)),
	}
	for ci := range sc.cut {
		sc.cut[ci].Store(-1)
		sc.counts[ci] = make([]int, fault.NumClasses)
	}
	return sc
}

// skip reports whether plan slot i falls at or past its component's
// committed truncation point — workers consult it before executing.
// A verify run never skips: the whole plan executes while the cuts are
// still computed, so the truncated aggregation can be cross-checked
// against a genuinely stopped run.
func (sc *stopController) skip(i int) bool {
	if sc == nil || sc.shadow || !sc.rule.Enabled() {
		return false
	}
	c := sc.cut[i/sc.perComp].Load()
	return c >= 0 && i%sc.perComp >= int(c)
}

// commit records slot i's verdict (predicted and simulated verdicts both
// count), advances the component's contiguous plan-order prefix, and
// evaluates the sequential rule at every check boundary the prefix
// crosses. Safe for concurrent use; idempotent per slot.
func (sc *stopController) commit(i int, cls fault.Class) {
	if sc == nil {
		return
	}
	var emit []obs.ConvSnapshot
	sc.mu.Lock()
	if !sc.done[i] {
		sc.done[i] = true
		sc.classes[i] = cls
		ci := i / sc.perComp
		if sc.cut[ci].Load() < 0 {
			base := ci * sc.perComp
			for sc.next[ci] < sc.perComp && sc.done[base+sc.next[ci]] {
				c := sc.classes[base+sc.next[ci]]
				sc.counts[ci][int(c)-1]++
				sc.next[ci]++
				if sc.next[ci]%sc.every == 0 || sc.next[ci] == sc.perComp {
					emit = append(emit, sc.lookLocked(ci)...)
					if sc.cut[ci].Load() >= 0 {
						// The rule fired: freeze the prefix at the cut so
						// the estimators report exactly the truncated
						// aggregation, in a verify run too.
						break
					}
				}
			}
		}
	}
	sc.mu.Unlock()
	if len(emit) > 0 {
		sc.ob.Convergence(emit, sc.tc)
	}
}

// lookLocked takes one sequential look at component ci's prefix
// estimators: evaluates the stopping rule across every class, commits
// the cut when all meet the target margin, and refreshes the
// convergence registry. Returns the component's snapshots for emission
// outside the lock.
func (sc *stopController) lookLocked(ci int) []obs.ConvSnapshot {
	sc.look[ci]++
	n := sc.next[ci]
	allMet := sc.rule.Enabled()
	for _, k := range sc.counts[ci] {
		if !sc.rule.Met(k, n, sc.look[ci]) {
			allMet = false
			break
		}
	}
	if allMet {
		sc.cut[ci].Store(int32(n))
	}
	stopped := sc.cut[ci].Load() >= 0
	snaps := make([]obs.ConvSnapshot, 0, fault.NumClasses)
	for _, cls := range fault.Classes() {
		key := obs.ConvKey{Workload: sc.workload, Comp: sc.comps[ci], Class: cls}
		snaps = append(snaps, sc.conv.Update(key, sc.counts[ci][int(cls)-1], n, sc.perComp, sc.look[ci], stopped))
	}
	return snaps
}

// cuts returns the per-component truncation points the aggregation
// consumes (full plan for components the rule never stopped), or nil
// when the rule is disabled — the aggregation is then byte-identical to
// a controller-free run.
func (sc *stopController) cuts() []int {
	if sc == nil || !sc.rule.Enabled() {
		return nil
	}
	out := make([]int, len(sc.comps))
	for ci := range out {
		if c := sc.cut[ci].Load(); c >= 0 {
			out[ci] = int(c)
		} else {
			out[ci] = sc.perComp
		}
	}
	return out
}

// finish emits every estimator's final snapshot and builds the
// workload's stop summary (nil when the rule is disabled).
func (sc *stopController) finish() *StopSummary {
	if sc == nil {
		return nil
	}
	sc.ob.Convergence(sc.conv.Snapshots(), sc.tc)
	if !sc.rule.Enabled() {
		return nil
	}
	conf := sc.rule.Confidence
	if conf == 0 {
		conf = 0.99
	}
	s := &StopSummary{
		TargetMargin: sc.rule.TargetMargin,
		Confidence:   conf,
		Shadow:       sc.shadow,
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for ci, comp := range sc.comps {
		executed := sc.perComp
		stopped := false
		if c := sc.cut[ci].Load(); c >= 0 && int(c) < sc.perComp {
			executed, stopped = int(c), true
		}
		margin := 0.0
		for _, k := range sc.counts[ci] {
			if m := sc.rule.Margin(k, executed); m > margin {
				margin = m
			}
		}
		s.Components = append(s.Components, StopComponent{
			Workload: sc.workload,
			Comp:     comp,
			Planned:  sc.perComp,
			Executed: executed,
			Looks:    sc.look[ci],
			Margin:   margin,
			Stopped:  stopped,
		})
		s.Planned += sc.perComp
		s.Executed += executed
	}
	s.Saved = s.Planned - s.Executed
	return s
}
