// Package beam implements a Monte-Carlo neutron-beam experiment over the
// simulated platform, standing in for the LANSCE campaigns of the paper.
//
// Strikes into the six modeled SRAM structures are *really injected* into a
// live, continuously running machine — so they share their physics with
// the fault injector. What distinguishes the beam methodology is modeled
// faithfully:
//
//   - the whole chip is irradiated continuously: the kernel's cache
//     residency is live (no per-run cache reset), and corruption persists
//     across executions until a crash forces a reboot;
//   - structures the simulator does not model (the FPGA-ARM interface,
//     logic latches, the disabled second core, and the resident on-line
//     SDC-check routines of the beam harness) appear as a platform overlay
//     with their own cross-sections, producing the beam-only crash surplus
//     of Figures 7, 8, and 10;
//   - results are event counts per fluence, converted to FIT by scaling to
//     the JEDEC sea-level flux, exactly as in Section IV-B.
package beam

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/core/sched"
	"armsefi/internal/mem"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
	"armsefi/internal/stats"
)

// Physical constants of the methodology.
const (
	// FluxNYC is the JEDEC reference sea-level neutron flux (n/cm^2/h).
	FluxNYC = 13.0
	// FITHours converts a cross-section x flux into failures per 1e9 hours.
	FITHours = 1e9
	// LANSCEFlux is the accelerated beam flux of the paper (n/cm^2/s).
	LANSCEFlux = 3.5e5
	// DefaultClockHz is the Cortex-A9 clock of the evaluated board.
	DefaultClockHz = 667e6
	// DefaultBitXS is the per-bit cross-section implied by the paper's
	// measured 2.76e-5 FIT/bit: sigma = FIT / (FluxNYC * 1e9 h).
	DefaultBitXS = 2.76e-5 / (FluxNYC * FITHours)
)

// PlatformXS gathers the cross-sections (cm^2) of board structures outside
// the microarchitectural model.
type PlatformXS struct {
	// SysCrash covers the FPGA-ARM interrupt interface, logic latches, and
	// the disabled second core: upsets make the board unreachable.
	SysCrash float64
	// AppCrash covers intra-chip communication upsets that hang the
	// application while Linux survives.
	AppCrash float64
	// Checker is the exposure of the beam harness's resident on-line
	// SDC-check routines; its effective cross-section scales with the
	// cache space the workload leaves unused (Section VI's explanation of
	// the StringSearch/MatMul/Qsort AppCrash outliers).
	Checker float64
}

// DefaultPlatformXS returns cross-sections calibrated so the beam/injection
// gaps land in the ranges the paper reports (System Crash surplus of one to
// two orders of magnitude; Application Crash surplus growing with the cache
// space left to the resident checker routines).
func DefaultPlatformXS() PlatformXS {
	return PlatformXS{
		SysCrash: 9.0e-11,
		AppCrash: 5.0e-12,
		Checker:  2.3e-11,
	}
}

// Config parameterises one beam campaign.
type Config struct {
	Preset    soc.Config
	Model     soc.ModelKind
	Scale     bench.Scale
	Seed      int64
	Flux      float64 // beam flux, n/cm^2/s
	BeamHours float64 // effective beam time per workload (excludes recovery)
	ClockHz   float64
	BitXS     float64 // cm^2 per modeled SRAM bit
	Platform  PlatformXS
	// CheckpointEvery, when non-zero, switches on the steady-state
	// capture: one warm golden replay whose end state (soc.SteadyState)
	// replaces — bit-identically — the fault-free golden runs of every
	// chain, the initial steady-state run and every post-crash reboot
	// run. No mid-run rungs are captured: on a live board a strike
	// chain's machine state carries corruption from previous strikes, so
	// a strike can neither start from a golden rung nor be reordered by
	// injection cycle without changing its physics. The value itself is
	// not used beyond switching the capture on, which keeps the campaign
	// flag shared with gefin. Zero (the default) keeps it off.
	CheckpointEvery uint64
	// MaxCheckpoints no longer affects beam campaigns, which capture no
	// rungs; it stays so configs shared with gefin keep their shape.
	MaxCheckpoints int
	// StrikesPerComponent stratifies the modeled-strike Monte Carlo: that
	// many strikes are simulated per component and each carries the weight
	// expected_strikes(component)/samples. Zero derives a default from the
	// beam time. Stratification is an unbiased variance reduction — the
	// physical experiment's strikes are bit-weighted, which would drown
	// the small high-AVF structures in L2 samples.
	StrikesPerComponent int
	// Workers bounds the campaign's worker pool. Each component's strike
	// chain is a self-contained live-board session (its own RNG stream,
	// starting from a fresh steady state, with corruption persisting
	// between its strikes), so chains shard across workbenches without
	// changing any chain's physics: the Result is bit-identical for every
	// value of Workers. Zero (the default) resolves to
	// runtime.GOMAXPROCS(0); 1 runs the chains sequentially.
	Workers int
	// Obs attaches the campaign observability layer: a per-strike
	// lifecycle trace, outcome/latency metrics, and pool gauges. Nil (the
	// default) disables all instrumentation at zero cost. Tracing does
	// not perturb results: strike chains and their physics are unchanged.
	Obs *obs.Observer `json:"-"`
	// TargetMargin enables deterministic sequential early stopping: each
	// component strike chain streams per-class fraction estimates and is
	// truncated at the first check boundary where every class estimator's
	// Wilson half-width — at an alpha-spending-corrected confidence — is
	// at or below this margin. The chain is a self-contained sequential
	// session, so its cut is a pure function of its own strike sequence
	// and the stopped Result is byte-identical at any worker count.
	// Truncated chains re-weight their surviving strikes by
	// planned/executed, keeping the stratified estimator unbiased. Zero
	// (the default) disables stopping.
	TargetMargin float64
	// Confidence is the two-sided level for the stopping rule and
	// reported margins (zero defaults to 0.99).
	Confidence float64
	// StopCheckEvery is the strike-count check-boundary spacing of the
	// sequential rule. Zero picks DefaultStopCheckEvery. Part of the
	// determinism surface.
	StopCheckEvery int
	// Verify simulates every strike while still computing the
	// sequential cuts, then emits the truncated re-weighted result: a
	// verify run's Workloads are byte-identical to a genuinely stopped
	// run's, which is how tests cross-check the prefix property.
	Verify bool
	// Provenance attaches a propagation-provenance probe to every strike:
	// the struck location is tainted at strike time and traced records
	// carry the mechanism verdict plus the lifecycle event chain. The
	// probe stays armed through the masked-path follow-up execution (a
	// latent corruption consumed there is a read), and is disarmed before
	// the post-crash reboot and the inter-strike restart. Each chain owns
	// one probe; Results are byte-identical with provenance on or off.
	Provenance bool
}

func (c Config) withDefaults() Config {
	if c.Preset.Name == "" {
		c.Preset = soc.PresetZynq()
	}
	if c.Model == 0 {
		c.Model = soc.ModelDetailed
	}
	if c.Scale == 0 {
		c.Scale = bench.ScaleTiny
	}
	if c.Flux == 0 {
		c.Flux = LANSCEFlux
	}
	if c.BeamHours == 0 {
		c.BeamHours = 20
	}
	if c.ClockHz == 0 {
		c.ClockHz = DefaultClockHz
	}
	if c.BitXS == 0 {
		c.BitXS = DefaultBitXS
	}
	if c.Platform == (PlatformXS{}) {
		c.Platform = DefaultPlatformXS()
	}
	if c.TargetMargin > 0 || c.Verify {
		// Pin the stop rule's full determinism surface into the config, so
		// a serialized manifest reproduces the identical cuts.
		if c.Confidence == 0 {
			c.Confidence = 0.99
		}
		if c.StopCheckEvery == 0 {
			c.StopCheckEvery = DefaultStopCheckEvery
		}
	}
	c.Workers = sched.Resolve(c.Workers)
	return c
}

// Validate rejects configurations no campaign can honour, before
// anything runs — Run, RunWorkload and the shard runner call it, and so
// can a command or the campaign service up front: a negative strike
// count, and a beam time, flux, clock or bit cross-section that is
// negative or not a finite number (zero picks the default).
func (c Config) Validate() error {
	if c.StrikesPerComponent < 0 {
		return fmt.Errorf("beam: %w: %d strikes per component", sched.ErrConfig, c.StrikesPerComponent)
	}
	for _, q := range []struct {
		name string
		v    float64
	}{{"beam hours", c.BeamHours}, {"flux", c.Flux}, {"clock", c.ClockHz}, {"bit cross-section", c.BitXS}} {
		if !(q.v >= 0) || math.IsInf(q.v, 0) {
			return fmt.Errorf("beam: %w: %s %v", sched.ErrConfig, q.name, q.v)
		}
	}
	return nil
}

// WorkloadResult is one workload's beam campaign outcome.
type WorkloadResult struct {
	Workload     string
	Scale        bench.Scale
	GoldenCycles uint64
	ExecSeconds  float64
	Executions   float64 // total executions fitting in the beam time
	Fluence      float64 // n/cm^2 accumulated over the beam time
	// Events accumulates observed errors by class (platform overlay
	// included); modeled strikes contribute their stratification weight.
	Events map[fault.Class]float64
	// ModeledEvents accumulates only strikes into modeled arrays.
	ModeledEvents map[fault.Class]float64
	// MaskedStrikes counts simulated strikes with no observable effect.
	MaskedStrikes int
	// SimulatedStrikes counts machine runs with an injected strike.
	SimulatedStrikes int
	// StrikeCounts tallies the simulated modeled strikes by final class —
	// raw unweighted counts (after any sequential truncation), the
	// denominators behind the beam-side Poisson confidence intervals.
	StrikeCounts map[fault.Class]int
	// CacheSlack is the fraction of the L2 the workload leaves unused,
	// which scales the resident-checker exposure.
	CacheSlack float64
	// TotalMismatches accumulates the mismatch counts reported by the
	// FIT-raw probe (zero for ordinary workloads).
	TotalMismatches uint64
	// WeightedMismatches is the stratification-weighted mismatch count,
	// the numerator of the FIT-raw estimate.
	WeightedMismatches float64
}

// FIT converts a class's event count into failures in time at the JEDEC
// sea-level flux: FIT = events/fluence * FluxNYC * 1e9.
func (w *WorkloadResult) FIT(c fault.Class) float64 {
	if w.Fluence == 0 {
		return 0
	}
	return w.Events[c] / w.Fluence * FluxNYC * FITHours
}

// TotalFIT sums the FIT of all error classes.
func (w *WorkloadResult) TotalFIT() float64 {
	var t float64
	for _, c := range fault.ErrorClasses() {
		t += w.FIT(c)
	}
	return t
}

// ErrorRatePerExecution reports observed errors per execution; the paper
// keeps this below 1/1000 so that scaling to natural flux is artifact-free.
func (w *WorkloadResult) ErrorRatePerExecution() float64 {
	if w.Executions == 0 {
		return 0
	}
	var n float64
	for _, c := range fault.ErrorClasses() {
		n += w.Events[c]
	}
	return n / w.Executions
}

// Result is a full beam campaign.
type Result struct {
	Config    Config
	Workloads []WorkloadResult
	// Stop summarises the sequential stopping rule's chain cuts and
	// achieved margins (campaigns with TargetMargin set only; nil
	// otherwise). Deliberately outside Workloads.
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

// ProgressEvent reports one simulated strike. As in gefin, emissions are
// serialised under a campaign-wide mutex (callback state needs no lock),
// but may originate from any worker goroutine.
type ProgressEvent struct {
	Workload string
	// Strike and Total count strikes into this workload.
	Strike, Total int
	// CampaignDone and CampaignTotal count strikes across every workload
	// of the Run (or just this workload under RunWorkload).
	CampaignDone, CampaignTotal int
	// Workers is the number of live workers at the instant of the event;
	// Rate is the aggregate campaign throughput in strikes/sec, and ETA
	// the remaining wall time it implies.
	Workers int
	Rate    float64
	ETA     time.Duration
}

// Progress receives per-strike progress callbacks; see ProgressEvent for
// the concurrency contract.
type Progress func(ProgressEvent)

// chainSeed derives the per-(workload, component) RNG stream of one strike
// chain from the campaign seed.
func chainSeed(seed int64, workload string, comp fault.Component) int64 {
	h := fnv.New64a()
	io.WriteString(h, workload)
	io.WriteString(h, "/")
	io.WriteString(h, comp.String())
	return seed ^ int64(h.Sum64())
}

// runChain exposes one component to the beam for meta.PerComp strikes on
// one workbench and returns the chain's wire record. A chain is a
// self-contained live-board session: it starts by bringing the board to
// steady state, and corruption then persists across its strikes until a
// crash forces a reboot — exactly the physics of the sequential
// simulator, scoped to one component so chains can run concurrently on
// sibling machines or on other nodes. tc stamps distributed trace context
// onto emitted strike records; the zero context stamps nothing.
func runChain(cfg Config, wb *harness.Workbench, spec bench.Spec, comp fault.Component,
	meta ShardMeta, conv *obs.ConvRegistry, em *emitter, worker int, tc obs.TraceContext) *ChainOutcome {
	m := wb.Machine
	built := wb.Built
	perComp := meta.PerComp
	totalSims := perComp * ShardsPerWorkload
	bits := fault.SizeBits(m, comp)
	weight := meta.Fluence * float64(bits) * cfg.BitXS / float64(perComp)
	rng := rand.New(rand.NewSource(chainSeed(cfg.Seed, spec.Name, comp)))
	out := &ChainOutcome{
		Events:  make(map[fault.Class]float64, fault.NumClasses),
		Counts:  make(map[fault.Class]int, fault.NumClasses),
		Planned: perComp,
	}
	cs := newChainStop(cfg, spec.Name, comp, perComp, conv, tc)

	// The board runs the workload in a loop from its warm post-boot state.
	steadyState(cfg, wb)
	m.RestartApp(wb.Snap)

	// The chain owns its probe: it taints only this workbench's arrays.
	var probe *mem.Probe
	if cfg.Provenance {
		probe = new(mem.Probe)
	}

	for s := 0; s < perComp; s++ {
		f := fault.Fault{
			Comp:  comp,
			Bit:   uint64(rng.Int63n(int64(bits))),
			Cycle: uint64(rng.Int63n(int64(wb.Golden.Cycles))),
		}
		if probe != nil {
			core := m.Core()
			probe.Reset(core.Cycles, core.PC)
		}
		start := time.Now()
		runRes := m.RunWithInjection(wb.Watchdog, f.Cycle, func() {
			if probe != nil {
				fault.Arm(m, f, probe)
			}
			fault.Apply(m, f)
		})
		class := fault.Classify(runRes, built.Golden, cfg.Preset.TimerPeriod)
		if mm := probeMismatches(spec, runRes.Output); mm > 0 {
			out.TotalMismatches += mm
			// Only strikes into the L1D array count toward the FIT-raw
			// estimate: the probe characterises that array, and the
			// simulated oracle can attribute exactly (the physical
			// experiment relies on the beam spot and timing to do the
			// same).
			if comp == fault.CompL1D {
				out.WeightedMismatches += float64(mm) * weight
			}
		}
		out.Sims++
		followup := false
		var follow soc.Result
		if class == fault.ClassMasked {
			out.Masked++
			// The corruption may be latent (e.g., a flipped kernel line
			// not yet touched): run one follow-up execution on the live
			// state before declaring it benign. The probe stays armed: a
			// latent corruption consumed here is a genuine read.
			m.RestartApp(wb.Snap)
			follow = m.Run(wb.Watchdog)
			fclass := fault.Classify(follow, built.Golden, cfg.Preset.TimerPeriod)
			if fclass != fault.ClassMasked {
				class = fclass
				followup = true
				out.Masked--
			}
		}
		if class != fault.ClassMasked {
			out.Events[class] += weight
		}
		out.Counts[class]++
		if cfg.Obs.On() {
			rec := obs.Record{
				Kind:       obs.KindStrike,
				Workload:   spec.Name,
				Comp:       f.Comp,
				Bit:        f.Bit,
				Cycle:      f.Cycle,
				Worker:     worker,
				ExecCycles: runRes.Cycles,
				Outcome:    runRes.Outcome.String(),
				Class:      class,
				Weight:     weight,
				Followup:   followup,
			}
			if probe.Armed() {
				// The verdict reads the result that produced the final
				// class: the follow-up run when it reclassified.
				vres := runRes
				if followup {
					vres = follow
				}
				mech := fault.MechanismOf(class, vres, probe)
				cfg.Obs.Mechanism(spec.Name, f.Comp, mech)
				rec.Mechanism = mech.String()
				if ev, ok := probe.FirstRead(); ok {
					rec.ReadCycle, rec.ReadPC, rec.ReadReg = ev.Cycle, ev.PC, ev.Reg
				}
				rec.ProvEvents = append([]mem.ProbeEvent(nil), probe.Events()...)
				rec.ProvDropped = probe.Dropped()
			}
			tc.Stamp(&rec)
			cfg.Obs.Record(rec, start, time.Now())
		}
		if probe != nil {
			// Disarm before the reboot/restart below: restores are not
			// lifecycle events.
			fault.Disarm(m)
		}
		if cs.record(out) {
			// The sequential rule truncated the chain; the next chain on
			// this workbench starts from a fresh steady state anyway.
			em.tick(spec.Name, totalSims)
			break
		}
		if class == fault.ClassAppCrash || class == fault.ClassSysCrash {
			// The host power-cycles the board and reboots Linux, then the
			// board runs back to steady state.
			steadyState(cfg, wb)
		}
		m.RestartApp(wb.Snap)
		em.tick(spec.Name, totalSims)
	}
	cs.finishChain(out)
	return out
}

// steadyState brings the board to the state the golden run leaves behind:
// through the captured steady state when one is installed (bit-identical,
// skipping the whole fault-free execution), otherwise by restoring the
// warm snapshot and running to completion.
func steadyState(cfg Config, wb *harness.Workbench) {
	if s := wb.Steady; s != nil {
		wb.Machine.FastForwardGolden(s)
		cfg.Obs.LadderRun(soc.LadderStats{FastForwarded: s.Final.Cycles})
		return
	}
	wb.Machine.RestoreSnapshot(wb.Snap, true)
	wb.Machine.Run(wb.Watchdog)
}

// prepare builds the workload's workbench and its deterministic meta
// (slack probe, fluence, execution budget, stratification size) — the
// setup shared by the in-process engine and the shard runner, so a chain
// executed on a remote node starts from the identical state.
func prepare(cfg Config, spec bench.Spec) (*harness.Workbench, ShardMeta, error) {
	wb, err := harness.Build(cfg.Preset, cfg.Model, spec, cfg.Scale)
	if err != nil {
		return nil, ShardMeta{}, fmt.Errorf("beam: %w", err)
	}
	m := wb.Machine

	// Cache occupancy after the cold golden run scales checker residency.
	l2cfg := m.Mem.L2.Config()
	totalLines := int(l2cfg.Sets()) * l2cfg.Ways
	slack := 1 - float64(m.Mem.L2.ValidLines())/float64(totalLines)
	if slack < 0 {
		slack = 0
	}

	if cfg.CheckpointEvery > 0 {
		// Captured only after the slack probe above, which must see the
		// state the cold golden run left.
		if err := wb.BuildSteadyState(); err != nil {
			return nil, ShardMeta{}, fmt.Errorf("beam: %w", err)
		}
	}

	meta := ShardMeta{
		GoldenCycles: wb.Golden.Cycles,
		ExecSeconds:  float64(wb.Golden.Cycles) / cfg.ClockHz,
		CacheSlack:   slack,
	}
	beamSeconds := cfg.BeamHours * 3600
	meta.Executions = beamSeconds / meta.ExecSeconds
	meta.Fluence = cfg.Flux * beamSeconds

	// Stratified Monte Carlo over the modeled arrays: simulate an equal
	// number of strikes per component; each contributes its component's
	// expected physical strike count divided by the sample size. Quiet
	// executions are accounted analytically through the fluence.
	meta.PerComp = cfg.StrikesPerComponent
	if meta.PerComp <= 0 {
		expect := meta.Fluence * float64(fault.TotalBits(m)) * cfg.BitXS
		meta.PerComp = min(max(int(expect/float64(fault.NumComponents))+1, 30), 120)
	}
	return wb, meta, nil
}

// runWorkload prepares the workload and runs its component chains across
// the primary workbench plus as many clones as the pool grants, returning
// the chain outcomes in component order for assemble.
func runWorkload(cfg Config, spec bench.Spec, pool *sched.Pool, em *emitter) (ShardMeta, []*ChainOutcome, error) {
	wb, meta, err := prepare(cfg, spec)
	if err != nil {
		return meta, nil, err
	}
	comps := fault.Components()
	em.addTotal(meta.PerComp * len(comps))

	// One estimator registry per workload run, shared by its chains (the
	// registry locks internally); nil without a rule or an observer.
	rule := stats.SeqRule{TargetMargin: cfg.TargetMargin, Confidence: cfg.Confidence}
	var conv *obs.ConvRegistry
	if rule.Enabled() || cfg.Obs.On() {
		conv = obs.NewConvRegistry(rule)
	}

	// Chains are claimed off an atomic cursor.
	extras := min(cfg.Workers-1, len(comps)-1)
	var clones []*harness.Workbench
	for len(clones) < extras {
		ok := pool.TryAcquire()
		cfg.Obs.CloneTry(ok)
		if !ok {
			break
		}
		clone, err := wb.Clone()
		if err != nil {
			pool.Release()
			for range clones {
				pool.Release()
			}
			return meta, nil, fmt.Errorf("beam: %w", err)
		}
		clones = append(clones, clone)
	}
	chains := make([]*ChainOutcome, len(comps))
	var cursor int64
	drain := func(worker int, w *harness.Workbench) {
		em.workerStarted()
		defer em.workerDone()
		for {
			ci := atomic.AddInt64(&cursor, 1) - 1
			if ci >= int64(len(comps)) {
				return
			}
			chains[ci] = runChain(cfg, w, spec, comps[ci], meta, conv, em, worker, obs.TraceContext{})
		}
	}
	var wg sync.WaitGroup
	for ci, clone := range clones {
		wg.Add(1)
		go func(worker int, clone *harness.Workbench) {
			defer wg.Done()
			defer pool.Release()
			drain(worker, clone)
		}(ci+1, clone)
	}
	drain(0, wb)
	wg.Wait()
	cfg.Obs.Convergence(conv.Snapshots(), obs.TraceContext{})
	return meta, chains, nil
}

// RunWorkload exposes one workload to the simulated beam, using up to
// cfg.Workers parallel workbenches (one component chain at a time each).
func RunWorkload(cfg Config, spec bench.Spec, progress Progress) (*WorkloadResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := sched.NewPool(cfg.Workers - 1)
	cfg.Obs.ObservePool(pool)
	meta, chains, err := runWorkload(cfg, spec, pool, newEmitter(progress, cfg.Obs))
	if err != nil {
		return nil, err
	}
	res, _, err := assemble(cfg, spec.Name, meta, chains)
	return res, err
}

// Run exposes a set of workloads to the beam. Workloads run concurrently,
// bounded — together with their per-workload extra workers — by
// cfg.Workers total live machines.
func Run(cfg Config, specs []bench.Spec, progress Progress) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := sched.NewPool(cfg.Workers)
	cfg.Obs.ObservePool(pool)
	em := newEmitter(progress, cfg.Obs)
	names := make([]string, len(specs))
	metas := make([]ShardMeta, len(specs))
	chains := make([][]*ChainOutcome, len(specs))
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
			metas[i], chains[i], errs[i] = runWorkload(cfg, spec, pool, em)
		}(i, spec)
		names[i] = spec.Name
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return AssembleResult(cfg, names, metas, chains)
}

// emitter adapts the shared meter to beam progress events, adding the
// per-workload strike counts, and feeds every meter snapshot into the
// observability gauges. All mutable state is only touched inside
// Meter.Tick's lock, which also serialises the user callback.
type emitter struct {
	meter *sched.Meter
	fn    Progress
	ob    *obs.Observer
	done  map[string]int
}

// newEmitter returns nil when there is neither a callback nor an
// observer: a nil emitter's methods are no-ops.
func newEmitter(fn Progress, ob *obs.Observer) *emitter {
	if fn == nil && !ob.On() {
		return nil
	}
	return &emitter{meter: sched.NewMeter(), fn: fn, ob: ob, done: make(map[string]int)}
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

func (e *emitter) tick(workload string, totalPerWorkload int) {
	if e == nil {
		return
	}
	e.meter.Tick(func(s sched.Snapshot) {
		e.ob.MeterTick(s)
		if e.fn == nil {
			return
		}
		e.done[workload]++
		e.fn(ProgressEvent{
			Workload:      workload,
			Strike:        e.done[workload],
			Total:         totalPerWorkload,
			CampaignDone:  s.Done,
			CampaignTotal: s.Total,
			Workers:       s.Workers,
			Rate:          s.Rate,
			ETA:           s.ETA,
		})
	})
}

// probeMismatches extracts the FIT-raw probe's self-reported mismatch
// count when the workload is the probe.
func probeMismatches(spec bench.Spec, output []byte) uint64 {
	if spec.Name != bench.FITRawProbeName || len(output) != 8 {
		return 0
	}
	count, _, err := bench.FITRawMismatches(output)
	if err != nil {
		return 0
	}
	return uint64(count)
}

// poisson draws from a Poisson distribution (Knuth for small means, normal
// approximation above).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := rng.NormFloat64()*math.Sqrt(mean) + mean
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// MeasureFITRaw runs the Section VI characterisation: the L1 pattern probe
// under the beam, returning FIT per bit as measured from the probe's own
// mismatch reports.
func MeasureFITRaw(cfg Config, progress Progress) (float64, *WorkloadResult, error) {
	spec, ok := bench.ByName(bench.FITRawProbeName)
	if !ok {
		return 0, nil, fmt.Errorf("beam: probe workload not registered")
	}
	res, err := RunWorkload(cfg, spec, progress)
	if err != nil {
		return 0, nil, err
	}
	bits := float64(bench.FITRawBufBytes) * 8
	if res.Fluence == 0 {
		return 0, res, nil
	}
	sigmaPerBit := res.WeightedMismatches / res.Fluence / bits
	return sigmaPerBit * FluxNYC * FITHours, res, nil
}
