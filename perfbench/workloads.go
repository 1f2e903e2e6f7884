package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/fit"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
	"armsefi/internal/stats"
)

// Campaign sizes. Each campaign is sized to take a few seconds on one
// simulating worker, so a 35-second run makes enough campaigns for its
// medians to hold still on a noisy shared host. README.md records why.
const (
	// pipelineFaults, pipelineStrikes and pipelineHours shape the
	// paper-pipeline campaign: six components of crc32 and qsort.
	pipelineFaults  = 10
	pipelineStrikes = 4
	pipelineHours   = 0.15
	// remoteFaults is the per-component plan of service-remote (fft x
	// {l1d, l2}).
	remoteFaults = 3000
	// remoteShardSize cuts the service-remote plan into fixed shards.
	remoteShardSize = 500
	// triageFaults is the per-component plan of suite-triage.
	triageFaults = 2
)

// session is one opened workload: campaign runs one complete campaign and
// validates it; lc, when non-nil, receives the traced layer timings.
// observe attaches the program's own observability layer to the
// campaigns that follow (nil detaches it).
type session interface {
	campaign(lc *layerClock, seed int64) (outcome, error)
	observe(o *obs.Observer) error
	close() error
}

// plans is the number of distinct fault plans a run cycles through: the
// j-th campaign of a run uses plan j%plans. A campaign's cost depends on
// its plan (how many slots the pre-filter decides, how long the simulated
// ones run), so a median over several plans moves less from one --seed to
// the next than repeats of one plan would; the repeats check that a plan
// reproduces its digest.
const plans = 8

// campaignSeed is the campaign seed of a run's j-th campaign.
func campaignSeed(seed int64, j int) int64 { return seed*1000 + int64(j%plans) }

// outcome is what a campaign produced: the digest of its .Workloads JSON,
// the fault experiments it resolved, and the Results for the traced pass.
type outcome struct {
	digest string
	slots  int
	inj    *gefin.Result
	beam   *beam.Result
}

// workload is one named benchmark workload: the bench workloads it runs
// and its campaign configs, whose Seed each campaign sets.
type workload struct {
	name  string
	specs []string
	inj   gefin.Config
	// beam is nil when the workload runs no beam campaign.
	beam *beam.Config
	// remote submits the injection campaign to the campaign service.
	remote bool
}

var workloads = []*workload{
	{
		name:  "paper-pipeline",
		specs: []string{"crc32", "qsort"},
		inj:   injConfig(fault.Components(), pipelineFaults, false),
		beam: &beam.Config{
			Preset: soc.PresetZynq(), Model: soc.ModelDetailed, Scale: bench.ScaleTiny,
			BeamHours: pipelineHours, StrikesPerComponent: pipelineStrikes, Workers: 1,
			CheckpointEvery: soc.DefaultCheckpointEvery, MaxCheckpoints: soc.DefaultMaxCheckpoints,
		},
	},
	{
		name: "service-remote", specs: []string{"fft"}, remote: true,
		inj: injConfig([]fault.Component{fault.CompL1D, fault.CompL2}, remoteFaults, true),
	},
	{name: "suite-triage", specs: suiteNames(), inj: injConfig(fault.Components(), triageFaults, true)},
}

// injConfig is a single-worker injection config with the checkpoint
// ladder on, and the pre-filter and dedup on when shortcuts is set. The
// platform and model are spelled out so the traced pass can rebuild the
// campaigns' workbenches exactly.
func injConfig(comps []fault.Component, faults int, shortcuts bool) gefin.Config {
	return gefin.Config{
		Preset: soc.PresetModel(), Model: soc.ModelDetailed, Scale: bench.ScaleTiny,
		Components: comps, FaultsPerComponent: faults, Workers: 1,
		CheckpointEvery: soc.DefaultCheckpointEvery, MaxCheckpoints: soc.DefaultMaxCheckpoints,
		Prune: shortcuts, Dedup: shortcuts,
	}
}

// suiteNames lists the thirteen Table III workloads.
func suiteNames() []string {
	var names []string
	for _, s := range bench.All() {
		names = append(names, s.Name)
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// benchSpecs resolves the workload's bench specs.
func (w *workload) benchSpecs() ([]bench.Spec, error) {
	specs := make([]bench.Spec, len(w.specs))
	for i, n := range w.specs {
		s, ok := bench.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown bench workload %q", n)
		}
		specs[i] = s
	}
	return specs, nil
}

// buildSpecs assembles every spec of the workload, the set-up step all
// workloads share (the campaigns assemble again internally; this one
// proves the sources assemble before any timing starts).
func buildSpecs(specs []bench.Spec) error {
	for _, s := range specs {
		if _, err := s.Build(soc.UserAsmConfig(), bench.ScaleTiny); err != nil {
			return err
		}
	}
	return nil
}

// open performs the workload's set-up and returns its session.
func (w *workload) open() (session, error) {
	specs, err := w.benchSpecs()
	if err != nil {
		return nil, err
	}
	if err := buildSpecs(specs); err != nil {
		return nil, err
	}
	if w.remote {
		return openRemote(w.inj, w.specs)
	}
	return &localSession{specs: specs, inj: w.inj, beam: w.beam}, nil
}

// localSession runs campaigns in-process: optionally a beam campaign, the
// injection campaign, and (with a beam campaign) the FIT comparison —
// fitcompare's pipeline.
type localSession struct {
	specs []bench.Spec
	inj   gefin.Config
	beam  *beam.Config
	obs   *obs.Observer
}

func (s *localSession) observe(o *obs.Observer) error {
	s.obs = o
	return nil
}

func (s *localSession) campaign(lc *layerClock, seed int64) (outcome, error) {
	var out outcome
	if s.beam != nil {
		bc := *s.beam
		bc.Seed, bc.Obs = seed, s.obs
		t0 := time.Now()
		br, err := beam.Run(bc, s.specs, nil)
		if err != nil {
			return out, err
		}
		if lc != nil {
			lc.beamRun = time.Since(t0)
		}
		out.beam = br
	}
	ic := s.inj
	ic.Seed, ic.Obs = seed, s.obs
	ir, err := gefin.Run(ic, s.specs, nil)
	if err != nil {
		return out, err
	}
	out.inj = ir
	if out.beam == nil {
		return finish(out, ir.Workloads)
	}
	t0 := time.Now()
	z := stats.ConfidenceZ(0.95)
	comps := make([]fit.Comparison, 0, len(ir.Workloads))
	for i := range ir.Workloads {
		w := &ir.Workloads[i]
		bw, ok := out.beam.Workload(w.Workload)
		if !ok {
			return out, fmt.Errorf("beam result lacks workload %s", w.Workload)
		}
		comps = append(comps, fit.CompareCI(bw, w, fit.DefaultFITRawPerBit, z))
	}
	if lc != nil {
		lc.fitCompare = time.Since(t0)
	}
	return finish(out, struct {
		Beam        []beam.WorkloadResult
		Injection   []gefin.WorkloadResult
		Comparisons []fit.Comparison
	}{out.beam.Workloads, ir.Workloads, comps})
}

func (s *localSession) close() error { return nil }

// finish validates the Results' slot accounting and digests the
// workloads payload.
func finish(out outcome, payload any) (outcome, error) {
	n, err := injectionSlots(out.inj)
	if err != nil {
		return out, err
	}
	out.slots = n
	if out.beam != nil {
		for _, w := range out.beam.Workloads {
			if w.SimulatedStrikes == 0 {
				return out, fmt.Errorf("beam workload %s simulated no strikes", w.Workload)
			}
			out.slots += w.SimulatedStrikes
		}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return out, fmt.Errorf("encoding workloads: %w", err)
	}
	sum := sha256.Sum256(data)
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// injectionSlots counts the plan slots an injection Result resolved and
// checks that every component resolved its whole plan.
func injectionSlots(r *gefin.Result) (int, error) {
	n := 0
	for _, w := range r.Workloads {
		if len(w.Components) != len(r.Config.Components) {
			return 0, fmt.Errorf("%s: %d components, want %d", w.Workload, len(w.Components), len(r.Config.Components))
		}
		for _, c := range w.Components {
			if c.N != r.Config.FaultsPerComponent {
				return 0, fmt.Errorf("%s/%s resolved %d of %d slots", w.Workload, c.Comp, c.N, r.Config.FaultsPerComponent)
			}
			n += c.N
		}
	}
	return n, nil
}

// checker validates each campaign's digest against the first digest of
// its plan in the run. At the default seed the plans' digests are the
// ones recorded in digests.go. Service-remote campaigns must equal an
// in-process campaign of the same config and plan: the recorded digest
// of one where there is one, otherwise an in-process campaign run once
// per plan, after the timed one and outside any measurement.
type checker struct {
	w       *workload
	seed    int64
	digests [plans]string
}

func newChecker(w *workload, seed int64) *checker {
	c := &checker{w: w, seed: seed}
	if seed == defaultSeed {
		copy(c.digests[:], defaultSeedDigests[w.name])
	}
	return c
}

// check validates the j-th campaign's outcome.
func (c *checker) check(j int, out outcome) error {
	want := &c.digests[j%plans]
	if *want == "" && c.w.remote {
		specs, err := c.w.benchSpecs()
		if err != nil {
			return err
		}
		ref, err := (&localSession{specs: specs, inj: c.w.inj}).campaign(nil, campaignSeed(c.seed, j))
		if err != nil {
			return fmt.Errorf("in-process reference campaign: %w", err)
		}
		*want = ref.digest
	}
	if *want == "" {
		*want = out.digest
	}
	if out.digest != *want {
		return fmt.Errorf("workloads digest %s, want %s", out.digest, *want)
	}
	return nil
}
