// Package gefin implements the statistical microarchitectural fault
// injection methodology of the paper (the GeFIN framework over gem5):
// per-component campaigns of uniformly sampled single-bit transient faults
// on the detailed CPU model, outcome classification, AVF estimation, and
// the Leveugle error-margin analysis of Table IV.
package gefin

import (
	"fmt"
	"sync"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/sched"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
	"armsefi/internal/stats"
)

// Config parameterises a fault-injection campaign.
type Config struct {
	Preset soc.Config
	Model  soc.ModelKind
	Scale  bench.Scale
	// FaultsPerComponent is the statistical sample size per component; the
	// paper uses 1,000 (4%% margin at 99%% confidence with p=0.5).
	FaultsPerComponent int
	// Components defaults to all six targets.
	Components []fault.Component
	Seed       int64
	// WarmCaches switches on the warm-start ablation (paper setups always
	// reset caches between injections).
	WarmCaches bool
	// TLBFullEntry samples TLB faults over the whole entry including the
	// virtual tag, instead of the paper's physical-page/permission region.
	// The tag region has near-zero AVF (flips there just cause re-walks),
	// which this ablation demonstrates.
	TLBFullEntry bool
	// CheckpointEvery enables the golden-run checkpoint ladder with the
	// given rung spacing in cycles: each workload's primary workbench
	// captures one instrumented golden replay, and every injection run
	// then fast-forwards to the nearest rung at or below its injection
	// cycle and exits early on golden convergence. Results are
	// bit-identical with the ladder on or off. Zero (the default) keeps
	// the ladder off — every run replays from the post-boot snapshot, the
	// paper's literal methodology. soc.DefaultCheckpointEvery is the
	// recommended spacing.
	CheckpointEvery uint64
	// MaxCheckpoints caps the rungs a ladder may hold (the effective
	// spacing grows to fit); zero picks soc.DefaultMaxCheckpoints.
	MaxCheckpoints int
	// Workers bounds the campaign's worker pool. Each worker owns its own
	// harness.Workbench (machines are stateful and cannot be shared); the
	// full fault list is pre-drawn from the seeded RNG before execution
	// starts, so the Result is bit-identical for every value of Workers.
	// Zero (the default) resolves to runtime.GOMAXPROCS(0); 1 reproduces
	// the sequential engine exactly.
	Workers int
	// Obs attaches the campaign observability layer: a per-injection
	// lifecycle trace, outcome/latency metrics, and pool gauges. Nil (the
	// default) disables all instrumentation at zero cost. Tracing does
	// not perturb results: the fault plan and execution are unchanged.
	Obs *obs.Observer `json:"-"`
	// Prune enables the ACE-style campaign pre-filter: the workload's
	// instrumented golden replay (the same pass that captures the ladder
	// when it is on) records per-location liveness, each
	// planned injection is classified against the log, and injections
	// proven masked (never-read, overwritten, evicted-clean, or latent at
	// run end) skip the simulator — their predicted verdicts, which are by
	// construction exactly what simulation would conclude, flow into the
	// Result and into trace records tagged predicted=true. Results are
	// byte-identical with pruning on or off, at any worker count.
	Prune bool
	// Dedup enables equivalence-class injection deduplication: planned
	// injections striking the same fault site within the same inter-event
	// quiescent window of the liveness replay are provably
	// outcome-equivalent (see internal/core/equiv), so the engine
	// simulates one canonical representative per class — the lowest plan
	// slot — and materializes its outcome onto every member, tagged
	// dedup=true in trace records. Results are byte-identical with
	// deduplication on or off, at any worker count — the same invariance
	// contract as Prune. Composes with Prune: classes form over the
	// pre-filter's undecided remainder.
	Dedup bool
	// Exhaustive replaces statistical sampling with a full sweep: every
	// (fault site x quiescent window) of the selected components is
	// enumerated from the liveness replay — one planned injection per
	// window, weighted by the window's width in cycles — so the AVF is
	// population-exact rather than estimated. FaultsPerComponent is
	// ignored. Local execution only (the plan size is data-dependent, so
	// the campaign service cannot cut shards at submission time), and
	// only over liveness-covered components: the register file,
	// TLBFullEntry sampling, and sequential stopping are rejected.
	Exhaustive bool
	// TargetMargin enables deterministic sequential early stopping: the
	// engine streams per-(component, outcome-class) estimates over the
	// committed plan-order prefix and truncates each component's plan at
	// the first check boundary where every class estimator's Wilson
	// half-width — at an alpha-spending-corrected confidence, so repeated
	// looks stay honest — is at or below this margin. The truncation
	// point is a pure function of the plan-order outcome prefix, so a
	// stopped Result is byte-identical across worker counts and to the
	// matching plan-order prefix of a full run. Zero (the default)
	// disables stopping.
	TargetMargin float64
	// Confidence is the two-sided level for the stopping rule and for
	// reported margins (zero defaults to 0.99, the paper's level).
	Confidence float64
	// StopCheckEvery is the plan-order check-boundary spacing: the
	// sequential rule is evaluated each time a component's committed
	// prefix grows by this many injections. Zero picks
	// DefaultStopCheckEvery. Part of the determinism surface — the same
	// value must be used to reproduce a stopped Result.
	StopCheckEvery int
	// Verify is the cross-validation mode of every shortcut: each slot is
	// simulated with a provenance probe, whichever shortcut would have
	// resolved it is checked against the simulation — a pre-filter
	// prediction against the simulated mechanism and outcome, a class
	// member against its representative — and any disagreement fails the
	// campaign naming the slot. Sequential cuts are still computed but
	// never applied, so a verify run's Workloads are byte-identical to a
	// genuinely stopped run's. It also sets soc.LadderDebugCompare
	// (process-wide, sticky), cross-checking every incremental ladder
	// convergence verdict against the exact full-image comparison. Slow;
	// it turns on neither Prune nor Dedup.
	Verify bool
	// Provenance attaches a propagation-provenance probe to every
	// injection: the struck location is tainted at flip time, the memory
	// and CPU models report its lifecycle (first consuming read,
	// overwrite, clean eviction, writeback, corrupted commit), and each
	// traced record carries a mechanism verdict explaining its outcome
	// class. Each worker owns one probe, so any Workers value is safe.
	// The probe is purely observational: campaign Results are
	// byte-identical with provenance on or off.
	Provenance bool
}

func (c Config) withDefaults() Config {
	if c.FaultsPerComponent == 0 {
		c.FaultsPerComponent = 1000
	}
	if len(c.Components) == 0 {
		c.Components = fault.Components()
	}
	if c.Model == 0 {
		c.Model = soc.ModelDetailed
	}
	if c.Scale == 0 {
		c.Scale = bench.ScaleTiny
	}
	if c.Preset.Name == "" {
		c.Preset = soc.PresetModel()
	}
	if c.CheckpointEvery > 0 && c.MaxCheckpoints == 0 {
		c.MaxCheckpoints = soc.DefaultMaxCheckpoints
	}
	if c.TargetMargin > 0 {
		// Pin the stop rule's full determinism surface into the config, so
		// a serialized manifest reproduces the identical cuts.
		if c.Confidence == 0 {
			c.Confidence = 0.99
		}
		if c.StopCheckEvery == 0 {
			c.StopCheckEvery = DefaultStopCheckEvery
		}
	}
	if c.Verify {
		// Verify also cross-checks the ladder: every incremental DRAM
		// convergence verdict against the full-image comparison. One-way:
		// never cleared here, so concurrent campaigns without Verify
		// cannot race a verifying campaign's setting away.
		soc.LadderDebugCompare.Store(true)
	}
	c.Workers = sched.Resolve(c.Workers)
	return c
}

// ComponentResult aggregates one workload x component campaign.
type ComponentResult struct {
	Comp     fault.Component
	SizeBits uint64
	N        int
	Counts   map[fault.Class]int
	// ValidStruck counts, per outcome, the injections that landed in live
	// content (a valid cache line / TLB entry) at the injection instant.
	ValidStruck map[fault.Class]int
	// KernelStruck counts, per outcome, the injections that landed in
	// live kernel-owned cache lines — the System-Crash mechanism the
	// paper's Section V analysis identifies.
	KernelStruck map[fault.Class]int
	// Sites, Population, and WeightedCounts are set by exhaustive sweeps
	// only (omitted for sampled campaigns, whose serialized form is
	// unchanged): the enumerated fault-site count, the full
	// site x cycle population (Sites x GoldenCycles), and each outcome
	// class weighted by its (site, window) classes' widths in cycles.
	// WeightedCounts sums to Population exactly — the windows tile the
	// cycle range — so the AVF they imply is population-exact.
	Sites          uint64                 `json:",omitempty"`
	Population     uint64                 `json:",omitempty"`
	WeightedCounts map[fault.Class]uint64 `json:",omitempty"`
}

// AVF returns the architectural vulnerability factor: the fraction of
// injected faults with any non-masked outcome. For an exhaustive sweep
// it is population-exact — the window-width-weighted non-masked share of
// the full site x cycle population.
func (r ComponentResult) AVF() float64 {
	if r.Population > 0 {
		return float64(r.Population-r.WeightedCounts[fault.ClassMasked]) / float64(r.Population)
	}
	if r.N == 0 {
		return 0
	}
	return float64(r.N-r.Counts[fault.ClassMasked]) / float64(r.N)
}

// ClassFraction returns the fraction of faults with the given outcome.
func (r ComponentResult) ClassFraction(c fault.Class) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Counts[c]) / float64(r.N)
}

// ErrorMargin computes the re-adjusted Leveugle margin at 99%% confidence:
// p is the measured AVF shifted by the initial (p=0.5) margin, per the
// paper's Table IV procedure.
func (r ComponentResult) ErrorMargin() float64 {
	if r.Population > 0 {
		return 0 // an exhaustive sweep measures the population, not a sample
	}
	population := float64(r.SizeBits) * 1e6 // bits x cycles population (effectively infinite)
	initial := stats.MarginOfError(float64(r.N), population, stats.Z99, 0.5)
	p := r.AVF() + initial
	if p > 0.5 {
		p = 0.5 // margin is maximal at p=0.5
	}
	if p <= 0 {
		p = initial
	}
	return stats.MarginOfError(float64(r.N), population, stats.Z99, p)
}

// WorkloadResult aggregates one workload's campaign across components.
type WorkloadResult struct {
	Workload     string
	Scale        bench.Scale
	GoldenCycles uint64
	GoldenInstrs uint64
	Components   []ComponentResult
}

// Component returns the result for one component.
func (w *WorkloadResult) Component(c fault.Component) (ComponentResult, bool) {
	for _, r := range w.Components {
		if r.Comp == c {
			return r, true
		}
	}
	return ComponentResult{}, false
}

// PruneSummary reports what the campaign pre-filter did. It lives
// beside Workloads, never inside them: the determinism contract pins
// Workloads byte-identical with pruning on or off, and the summary is
// exactly the part that differs.
type PruneSummary struct {
	// Predicted counts injections proven masked by the pre-filter and
	// (outside verify mode) excluded from simulation; Simulated counts
	// the injections that ran on the simulator.
	Predicted int `json:"predicted"`
	Simulated int `json:"simulated"`
	// ByMechanism counts predictions per masking-mechanism verdict.
	ByMechanism map[string]int `json:"by_mechanism,omitempty"`
	// Verified and Mismatches report verify-mode cross-validation:
	// predictions checked against their simulated mechanism/outcome, and
	// disagreements found (any mismatch also fails the campaign).
	Verified   int `json:"verified,omitempty"`
	Mismatches int `json:"mismatches,omitempty"`
}

// merge folds another summary into s.
func (s *PruneSummary) merge(o *PruneSummary) {
	if o == nil {
		return
	}
	s.Predicted += o.Predicted
	s.Simulated += o.Simulated
	s.Verified += o.Verified
	s.Mismatches += o.Mismatches
	for m, n := range o.ByMechanism {
		if s.ByMechanism == nil {
			s.ByMechanism = make(map[string]int)
		}
		s.ByMechanism[m] += n
	}
}

// PredictedFraction returns the fraction of planned injections the
// pre-filter decided. In verify mode every injection simulates, so the
// plan size is Simulated rather than the sum.
func (s *PruneSummary) PredictedFraction() float64 {
	if s == nil {
		return 0
	}
	total := s.Predicted + s.Simulated
	if s.Verified > 0 {
		total = s.Simulated
	}
	if total == 0 {
		return 0
	}
	return float64(s.Predicted) / float64(total)
}

// DedupSummary reports what equivalence-class deduplication did. Like
// PruneSummary it lives beside Workloads, never inside them: Workloads
// stay byte-identical with deduplication on or off, and the summary is
// exactly the part that differs.
type DedupSummary struct {
	// Classes counts the multi-member equivalence classes; Deduped the
	// member injections resolved from their class representative without
	// simulation; Simulated the injections that ran on the simulator
	// (representatives, singleton classes, and undedupable sites).
	// MaxClass is the largest class size. Classes and MaxClass are zero
	// for remotely assembled campaigns: shards keep per-shard class
	// tables that do not reassemble into a global partition.
	Classes   int `json:"classes,omitempty"`
	Deduped   int `json:"deduped"`
	Simulated int `json:"simulated"`
	MaxClass  int `json:"max_class,omitempty"`
	// Verified and Mismatches report verify-mode cross-validation:
	// members simulated and compared against their representative's
	// outcome, and disagreements found (any mismatch also fails the
	// campaign).
	Verified   int `json:"verified,omitempty"`
	Mismatches int `json:"mismatches,omitempty"`
}

// merge folds another summary into s.
func (s *DedupSummary) merge(o *DedupSummary) {
	if o == nil {
		return
	}
	s.Classes += o.Classes
	s.Deduped += o.Deduped
	s.Simulated += o.Simulated
	s.Verified += o.Verified
	s.Mismatches += o.Mismatches
	if o.MaxClass > s.MaxClass {
		s.MaxClass = o.MaxClass
	}
}

// DedupedFraction returns the fraction of dedup-considered injections
// resolved from a representative. In verify mode every member simulates,
// so the denominator is Simulated rather than the sum.
func (s *DedupSummary) DedupedFraction() float64 {
	if s == nil {
		return 0
	}
	total := s.Deduped + s.Simulated
	if s.Verified > 0 {
		total = s.Simulated
	}
	if total == 0 {
		return 0
	}
	return float64(s.Deduped) / float64(total)
}

// SweepComponent reports one workload x component slice of an exhaustive
// sweep's enumeration: how the full site x cycle population collapsed
// into (site, window) equivalence classes.
type SweepComponent struct {
	Workload string          `json:"workload"`
	Comp     fault.Component `json:"comp"`
	// Sites is the enumerated fault-site count; Windows the (site,
	// window) classes actually simulated; Population = Sites x
	// GoldenCycles, the site x cycle pairs the windows tile exactly.
	Sites      uint64 `json:"sites"`
	Windows    int    `json:"windows"`
	Population uint64 `json:"population"`
	// MeanWidth and MaxWidth describe the class sizes in cycles —
	// Population/Windows is the sweep's compression ratio over naive
	// per-cycle enumeration.
	MeanWidth float64 `json:"mean_width"`
	MaxWidth  uint64  `json:"max_width"`
	// AVF is the population-exact architectural vulnerability factor.
	AVF float64 `json:"avf"`
}

// SweepSummary reports an exhaustive sweep's enumeration statistics,
// beside Workloads like the other summaries.
type SweepSummary struct {
	Components []SweepComponent `json:"components"`
}

// merge appends another summary's components in call order.
func (s *SweepSummary) merge(o *SweepSummary) {
	if o != nil {
		s.Components = append(s.Components, o.Components...)
	}
}

// Result is a full campaign: every workload x component x fault.
type Result struct {
	Config    Config
	Workloads []WorkloadResult
	// Prune summarises the pre-filter's predicted/simulated split (pruned
	// campaigns only; nil otherwise). Deliberately outside Workloads,
	// which stay byte-identical with pruning on or off.
	Prune *PruneSummary `json:",omitempty"`
	// Dedup summarises equivalence-class deduplication (deduped campaigns
	// only; nil otherwise), outside Workloads for the same reason.
	Dedup *DedupSummary `json:",omitempty"`
	// Sweep reports an exhaustive sweep's enumeration statistics
	// (exhaustive campaigns only; nil otherwise).
	Sweep *SweepSummary `json:",omitempty"`
	// Stop summarises the sequential stopping rule's cuts and achieved
	// margins (campaigns with TargetMargin set only; nil otherwise).
	// Also outside Workloads, which stay byte-identical to the matching
	// plan-order prefix of a full run.
	Stop *StopSummary `json:",omitempty"`
}

// Workload returns a workload's result by name.
func (r *Result) Workload(name string) (*WorkloadResult, bool) {
	for i := range r.Workloads {
		if r.Workloads[i].Workload == name {
			return &r.Workloads[i], true
		}
	}
	return nil, false
}

// ProgressEvent reports one completed injection. The engine serialises
// emissions under a campaign-wide mutex, so a callback's own state needs
// no locking — but the callback may be invoked from any worker goroutine,
// so it must not rely on goroutine identity, and it should return quickly
// (every worker stalls while it runs).
type ProgressEvent struct {
	Workload string
	Comp     fault.Component
	// Done and Total count injections into this workload x component.
	Done, Total int
	// CampaignDone and CampaignTotal count injections across every
	// workload of the Run (or just this workload under RunWorkload).
	CampaignDone, CampaignTotal int
	// Workers is the number of live workers at the instant of the event;
	// Rate is the aggregate campaign throughput in injections/sec (divide
	// by Workers for per-worker throughput), and ETA the remaining wall
	// time it implies.
	Workers int
	Rate    float64
	ETA     time.Duration
}

// Progress receives campaign progress callbacks; see ProgressEvent for the
// concurrency contract.
type Progress func(ProgressEvent)

// validate rejects configurations the engine cannot honour — today only
// exhaustive-sweep constraints: the plan is data-dependent (no remote
// sharding, no sequential stopping over a uniform per-component plan)
// and enumeration only covers liveness-modelable sites.
func (c Config) validate() error {
	if !c.Exhaustive {
		return nil
	}
	if c.TargetMargin > 0 {
		return fmt.Errorf("gefin: exhaustive sweeps measure the population exactly; sequential stopping does not apply")
	}
	if c.TLBFullEntry {
		return fmt.Errorf("gefin: exhaustive sweeps cannot enumerate full TLB entries (virtual-tag flips change which entries match, which the liveness stream cannot model)")
	}
	for _, comp := range c.Components {
		if comp == fault.CompRegFile {
			return fmt.Errorf("gefin: exhaustive sweeps cover liveness-recorded components only (caches and TLBs); %v is not", comp)
		}
	}
	return nil
}

// RunWorkload executes the campaign for a single workload, using up to
// cfg.Workers parallel workbenches.
func RunWorkload(cfg Config, spec bench.Spec, progress Progress) (*WorkloadResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The caller's goroutine drives the primary workbench; the pool holds
	// only the extra-worker slots.
	pool := sched.NewPool(cfg.Workers - 1)
	cfg.Obs.ObservePool(pool)
	res, _, err := runWorkload(cfg, spec, pool, newEmitter(progress, cfg.Obs))
	return res, err
}

// Run executes the campaign for a set of workloads. Workloads run
// concurrently, bounded — together with their per-workload extra workers —
// by cfg.Workers total live machines.
func Run(cfg Config, specs []bench.Spec, progress Progress) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pool := sched.NewPool(cfg.Workers)
	cfg.Obs.ObservePool(pool)
	em := newEmitter(progress, cfg.Obs)
	results := make([]*WorkloadResult, len(specs))
	sides := make([]sideSummaries, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		// Primary worker slots are taken in spec order, so at Workers 1
		// the workloads run strictly one after another and the trace is
		// reproducible.
		pool.Acquire()
		wg.Add(1)
		go func(i int, spec bench.Spec) {
			defer wg.Done()
			defer pool.Release()
			results[i], sides[i], errs[i] = runWorkload(cfg, spec, pool, em)
		}(i, spec)
	}
	wg.Wait()
	res := &Result{Config: cfg}
	for i := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.Workloads = append(res.Workloads, *results[i])
	}
	// Every side summary merges in spec order, outside Workloads, so
	// optimised and plain campaigns stay byte-identical where CI diffs
	// them.
	if cfg.Prune {
		total := &PruneSummary{ByMechanism: make(map[string]int)}
		for _, s := range sides {
			total.merge(s.prune)
		}
		res.Prune = total
	}
	if cfg.Dedup {
		total := &DedupSummary{}
		for _, s := range sides {
			total.merge(s.dedup)
		}
		res.Dedup = total
	}
	if cfg.Exhaustive {
		total := &SweepSummary{}
		for _, s := range sides {
			total.merge(s.sweep)
		}
		res.Sweep = total
	}
	if cfg.TargetMargin > 0 {
		total := &StopSummary{}
		for _, s := range sides {
			total.merge(s.stop)
		}
		res.Stop = total
	}
	return res, nil
}

// hashString is a small FNV-1a for seeding per-workload streams.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
