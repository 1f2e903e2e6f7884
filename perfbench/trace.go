package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/equiv"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/core/harness"
	"armsefi/internal/obs"
	"armsefi/internal/soc"
)

// Sample sizes of the traced pass's own probes.
const (
	// faultRuns is the number of single-fault runs timed for the soc.*
	// metrics, spread over the workload's specs; at least 100 leaves ten
	// samples beyond the reported p90.
	faultRuns = 120
	// predictDraws is the number of ace.Predict calls timed per spec.
	predictDraws = 20000
	// buildReps repeats the spec assembly timed for bench.build_s.
	buildReps = 5
	// minPairs is the fewest untraced/traced campaign pairs a traced run
	// makes.
	minPairs = 2
)

// perLayer lists every per-layer metric with its unit, in report order.
// A workload that bypasses a layer reports that layer's metrics as zero.
var perLayer = []struct{ name, unit string }{
	{"bench.build_s", "s"},
	{"harness.new_s", "s"},
	{"harness.ladder_s", "s"},
	{"harness.liveness_s", "s"},
	{"harness.golden_share", "fraction"},
	{"soc.fault_run_ms.p50", "ms"},
	{"soc.fault_run_ms.p90", "ms"},
	{"soc.sim_mcycles_per_s", "Mcycles/s"},
	{"soc.ff_frac", "fraction"},
	{"soc.early_exit_frac", "fraction"},
	{"soc.alloc_kb_per_mcycle", "KB/Mcycle"},
	{"beam.run_s", "s"},
	{"beam.strikes", "count"},
	{"beam.strike_ms", "ms"},
	{"ace.predict_ns", "ns"},
	{"ace.decided_frac", "fraction"},
	{"equiv.partition_ms", "ms"},
	{"equiv.deduped_frac", "fraction"},
	{"gefin.predicted", "count"},
	{"gefin.deduped", "count"},
	{"gefin.simulated", "count"},
	{"serve.claims", "count"},
	{"serve.claim_ms.p50", "ms"},
	{"serve.complete_ms.p50", "ms"},
	{"serve.exec_s", "s"},
	{"serve.idle_s", "s"},
	{"serve.shard_local_s", "s"},
	{"serve.retained_mb", "MB"},
	{"fit.compare_ms", "ms"},
	{"obs.trace_overhead_s", "s"},
}

// layerClock collects the traced campaign's timings of public calls. A
// nil clock records nothing, which is how untraced campaigns run.
type layerClock struct {
	beamRun, fitCompare time.Duration // beam.Run; the fit.CompareCI loop
	serve               serveStats
	wall                time.Duration // the traced campaign's own wall time
}

// runTraced is the traced run. Pairs of campaigns run one plan each,
// once untraced and once traced, until their wall times add up to dur;
// the pairs alternate which member runs first. A traced campaign runs
// with an obs.Observer attached (JSONL trace to io.Discard) and with the
// layer clocks; the median paired wall difference is the tracing
// overhead. Then the benchmark's own probes time the golden-path phases,
// single fault runs, the pre-filter and the partitioner on the
// workload's specs.
func runTraced(w *workload, seed int64, dur time.Duration) (*report, error) {
	s, err := w.open()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer s.close()
	chk := newChecker(w, seed)
	rep := &report{}
	var (
		traced, overhead, retained []float64
		first                      *layerClock // the first traced campaign: its counts repeat run to run
		firstOut                   outcome
		firstSeed                  int64
	)
	var measured time.Duration
	start := time.Now()
	// Both members of a pair run the same plan; the checker holds both
	// to the plan's digest.
	for pair := 0; pair < minPairs || (measured < dur && time.Since(start) < maxElapsed*dur); pair++ {
		cseed := campaignSeed(seed, pair)
		var walls [2]float64 // untraced, traced
		ok := 0
		for k := 0; k < 2; k++ {
			on := (k+pair)%2 == 1
			var (
				lc *layerClock
				o  *obs.Observer
			)
			if on {
				lc, o = &layerClock{}, obs.New(obs.Options{TraceWriter: io.Discard})
			}
			if err := s.observe(o); err != nil {
				return nil, err
			}
			smp, out, err := timeCampaign(s, lc, cseed)
			measured += smp.wall
			rep.Attempted++
			if err == nil {
				err = o.Close()
			}
			if err == nil {
				err = chk.check(pair, out)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s traced campaign %d: %v\n", w.name, rep.Attempted, err)
				rep.Failed++
				continue
			}
			ok++
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			retained = append(retained, (float64(mem.HeapAlloc)-float64(smp.heap))/1e6)
			if !on {
				walls[0] = smp.wall.Seconds()
				continue
			}
			walls[1] = smp.wall.Seconds()
			traced = append(traced, walls[1])
			if first == nil {
				lc.wall = smp.wall
				first, firstOut, firstSeed = lc, out, cseed
			}
		}
		if ok == 2 {
			overhead = append(overhead, walls[1]-walls[0])
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if first == nil || len(overhead) == 0 {
		return nil, fmt.Errorf("%s: every traced campaign pair failed", w.name)
	}
	m := make(map[string]float64, len(perLayer))
	m["obs.trace_overhead_s"] = median(overhead)
	if w.remote {
		m["serve.retained_mb"] = median(retained)
	}
	if err := probeLayers(w, seed, median(traced), m); err != nil {
		return nil, err
	}
	if err := campaignLayers(w, firstSeed, first, firstOut, m); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		rep.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	return rep, nil
}

// campaignLayers derives the metrics of the first traced campaign, whose
// plan seed is seed: the layer clocks around public calls, the counts the
// Results export, and the serve decorator's timings.
func campaignLayers(w *workload, seed int64, lc *layerClock, out outcome, m map[string]float64) error {
	if r := out.inj; r != nil {
		predicted, deduped := 0, 0
		if r.Prune != nil {
			predicted = r.Prune.Predicted
			m["ace.decided_frac"] = r.Prune.PredictedFraction()
		}
		if r.Dedup != nil {
			deduped = r.Dedup.Deduped
			m["equiv.deduped_frac"] = r.Dedup.DedupedFraction()
		}
		slots, _ := injectionSlots(r)
		m["gefin.predicted"] = float64(predicted)
		m["gefin.deduped"] = float64(deduped)
		m["gefin.simulated"] = float64(slots - predicted - deduped)
	}
	if r := out.beam; r != nil {
		strikes := 0
		for _, bw := range r.Workloads {
			strikes += bw.SimulatedStrikes
		}
		m["beam.run_s"] = lc.beamRun.Seconds()
		m["beam.strikes"] = float64(strikes)
		m["beam.strike_ms"] = ms(lc.beamRun) / float64(strikes)
		m["fit.compare_ms"] = ms(lc.fitCompare)
	}
	if w.remote {
		st := lc.serve
		m["serve.claims"] = float64(len(st.claims))
		m["serve.claim_ms.p50"] = medianMS(st.claims)
		m["serve.complete_ms.p50"] = medianMS(st.completes)
		m["serve.exec_s"] = st.exec.Seconds()
		m["serve.idle_s"] = lc.wall.Seconds() - st.exec.Seconds()
		cfg := w.inj
		cfg.Seed = seed
		local, err := runShardsLocal(cfg, st.shards)
		if err != nil {
			return err
		}
		m["serve.shard_local_s"] = local.Seconds()
	}
	return nil
}

// probeLayers times the golden-path phases, single fault runs, the
// pre-filter and the partitioner on the workload's specs, rebuilding the
// workbenches its campaigns build.
func probeLayers(w *workload, seed int64, wall float64, m map[string]float64) error {
	specs, err := w.benchSpecs()
	if err != nil {
		return err
	}
	builds := make([]float64, buildReps)
	for i := range builds {
		t0 := time.Now()
		if err := buildSpecs(specs); err != nil {
			return err
		}
		builds[i] = time.Since(t0).Seconds()
	}
	m["bench.build_s"] = median(builds)

	ic, bc := w.inj, w.beam
	var newD, ladderD, liveD time.Duration
	wbs := make([]*harness.Workbench, len(specs))
	for i, spec := range specs {
		built, err := spec.Build(soc.UserAsmConfig(), ic.Scale)
		if err != nil {
			return err
		}
		t0 := time.Now()
		wb, err := harness.New(ic.Preset, ic.Model, built)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := wb.BuildLadder(ic.CheckpointEvery, ic.MaxCheckpoints, false); err != nil {
			return err
		}
		t2 := time.Now()
		newD += t1.Sub(t0)
		ladderD += t2.Sub(t1)
		if ic.Prune || ic.Dedup {
			if err := wb.BuildLiveness(false); err != nil {
				return err
			}
			liveD += time.Since(t2)
		}
		wbs[i] = wb
		if bc != nil {
			t0 := time.Now()
			bwb, err := harness.New(bc.Preset, bc.Model, built)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if err := bwb.BuildLadder(bc.CheckpointEvery, bc.MaxCheckpoints, true); err != nil {
				return err
			}
			newD += t1.Sub(t0)
			ladderD += time.Since(t1)
		}
	}
	m["harness.new_s"] = newD.Seconds()
	m["harness.ladder_s"] = ladderD.Seconds()
	m["harness.liveness_s"] = liveD.Seconds()
	m["harness.golden_share"] = (newD + ladderD + liveD).Seconds() / wall

	rng := rand.New(rand.NewSource(seed))
	probeFaultRuns(wbs, ic.Components, rng, m)
	if ic.Prune || ic.Dedup {
		probeShortcuts(wbs, ic, rng, m)
	}
	return nil
}

// drawFault draws one fault uniformly over the components, each
// component's modeled bits, and the golden run's cycles.
func drawFault(wb *harness.Workbench, comps []fault.Component, rng *rand.Rand) fault.Fault {
	comp := comps[rng.Intn(len(comps))]
	return fault.Fault{
		Comp:  comp,
		Bit:   uint64(rng.Int63n(int64(fault.SizeBits(wb.Machine, comp)))),
		Cycle: uint64(rng.Int63n(int64(wb.Golden.Cycles))),
	}
}

// probeFaultRuns times Workbench.RunFaultLadder on a seeded fault sample
// spread evenly over the workbenches. Executed cycles exclude the
// fast-forwarded prefix and the tail an early exit skipped.
func probeFaultRuns(wbs []*harness.Workbench, comps []fault.Component, rng *rand.Rand, m map[string]float64) {
	per := (faultRuns + len(wbs) - 1) / len(wbs)
	var (
		runs                []float64
		total, ff, executed uint64
		early               int
		m0, m1              runtime.MemStats
		busy                time.Duration
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, wb := range wbs {
		for i := 0; i < per; i++ {
			f := drawFault(wb, comps, rng)
			t0 := time.Now()
			_, _, res, st := wb.RunFaultLadder(f, false)
			d := time.Since(t0)
			busy += d
			runs = append(runs, ms(d))
			total += res.Cycles
			ff += st.FastForwarded
			executed += res.Cycles - st.FastForwarded - st.TailSaved
			if st.EarlyExit {
				early++
			}
		}
	}
	runtime.ReadMemStats(&m1)
	mcycles := float64(executed) / 1e6
	m["soc.fault_run_ms.p50"] = quantile(runs, 0.5)
	m["soc.fault_run_ms.p90"] = quantile(runs, 0.9)
	m["soc.sim_mcycles_per_s"] = mcycles / busy.Seconds()
	m["soc.ff_frac"] = float64(ff) / float64(total)
	m["soc.early_exit_frac"] = float64(early) / float64(len(runs))
	m["soc.alloc_kb_per_mcycle"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / mcycles
}

// probeShortcuts times ace.Predict per call and equiv.Partition over one
// campaign-sized plan per workbench, with the pre-filter's undecided
// slots eligible as in the engine.
func probeShortcuts(wbs []*harness.Workbench, cfg gefin.Config, rng *rand.Rand, m map[string]float64) {
	planLen := gefin.PlanLen(cfg)
	var predictD, partD time.Duration
	calls := 0
	for _, wb := range wbs {
		faults := make([]fault.Fault, predictDraws)
		for i := range faults {
			faults[i] = drawFault(wb, cfg.Components, rng)
		}
		decided := make([]bool, len(faults))
		t0 := time.Now()
		for i, f := range faults {
			_, decided[i] = ace.Predict(wb.Liveness, f)
		}
		predictD += time.Since(t0)
		calls += len(faults)
		plan := faults[:min(planLen, len(faults))]
		t0 = time.Now()
		equiv.Partition(wb.Liveness, plan, func(i int) bool { return !decided[i] })
		partD += time.Since(t0)
	}
	m["ace.predict_ns"] = float64(predictD.Nanoseconds()) / float64(calls)
	m["equiv.partition_ms"] = ms(partD)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

func specByName(name string) (bench.Spec, error) {
	s, ok := bench.ByName(name)
	if !ok {
		return bench.Spec{}, fmt.Errorf("unknown bench workload %q", name)
	}
	return s, nil
}
