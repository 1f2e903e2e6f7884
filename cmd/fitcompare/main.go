// Command fitcompare runs the paper's full cross-validation pipeline: a
// beam campaign and a fault-injection campaign over the same workloads,
// followed by the FIT comparison of Figures 6-10. It also regenerates the
// static methodology tables (I, II, III) and the Section IV-D counter
// study.
//
// Usage:
//
//	fitcompare -static                  # Tables I-III only (fast)
//	fitcompare -counters                # Section IV-D counter deviations
//	fitcompare [-workloads a,b] [-faults 200] [-hours 2] [-scale tiny] [-workers N]
//	           [-trace trace.jsonl] [-prov] [-metrics-addr 127.0.0.1:9100]
//	           [-checkpoint-every 150000] [-max-checkpoints 64]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/cli"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/fit"
	"armsefi/internal/core/gefin"
	"armsefi/internal/cpu"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/rtl"
	"armsefi/internal/soc"
	"armsefi/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		cli.Exit("fitcompare", err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fitcompare", flag.ExitOnError)
	fs.SetOutput(stderr)
	cf := cli.Register(fs, false)
	var (
		faults     = fs.Int("faults", 200, "faults per component for the injection campaign")
		hours      = fs.Float64("hours", 2, "beam hours per workload")
		static     = fs.Bool("static", false, "print Tables I-III and exit")
		counters   = fs.Bool("counters", false, "print the Section IV-D counter study and exit")
		confidence = fs.Float64("confidence", 0.95,
			"confidence level for the beam-vs-injection significance verdicts (Poisson vs Wilson interval overlap)")
		prune = fs.Bool("prune", false,
			"pre-filter the injection campaign's fault plan against a liveness replay and skip provably-masked injections (results are byte-identical either way; beam strikes always execute)")
		dedup = fs.Bool("dedup", false,
			"collapse the injection campaign's plan into equivalence classes and simulate one representative per class (results are byte-identical either way; beam strikes always execute)")
	)
	fs.Parse(args)

	specs, scale, err := cf.Resolve()
	if err != nil {
		return err
	}

	if *static {
		rows, err := MeasureTableI()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.TableI(rows))
		fmt.Fprintln(stdout, report.TableII(soc.PresetZynq(), soc.PresetModel()))
		fmt.Fprintln(stdout, report.TableIII(bench.All()))
		return nil
	}
	if *counters {
		return runCounterStudy(stdout, specs, scale)
	}

	// The beam campaign runs on the board preset, the injection campaign
	// on the model preset. Both are validated before either runs.
	beamCfg := beam.Config{
		Scale: scale, Seed: cf.Seed, BeamHours: *hours, Workers: cf.Workers,
		CheckpointEvery: cf.CheckpointEvery, MaxCheckpoints: cf.MaxCheckpoints,
		Provenance: cf.Prov,
	}
	injCfg := gefin.Config{
		Scale: scale, Seed: cf.Seed, FaultsPerComponent: *faults, Workers: cf.Workers,
		CheckpointEvery: cf.CheckpointEvery, MaxCheckpoints: cf.MaxCheckpoints,
		Provenance: cf.Prov, Prune: *prune, Dedup: *dedup, Verify: cf.Verify,
	}
	if err := beamCfg.Validate(); err != nil {
		return err
	}
	if err := injCfg.Validate(); err != nil {
		return err
	}

	// One observer spans both campaigns: strikes and injections land in the
	// same trace file (distinguished by the record kind) and the same
	// metrics registry.
	ocli, err := obs.SetupCLI(cf.Trace, cf.MetricsAddr)
	if err != nil {
		return err
	}
	defer ocli.Close()
	beamCfg.Obs, injCfg.Obs = ocli.Obs, ocli.Obs
	var beamProg beam.Progress
	var gefinProg gefin.Progress
	if !cf.Quiet {
		// Aggregated single-line printers: workloads run concurrently, so
		// per-workload `\r` lines would interleave. Each engine serialises
		// its events, so the closures need no locks.
		beamProg = func(ev beam.ProgressEvent) {
			fmt.Fprintf(stderr, "\rbeam  %6d/%d strikes | %d workers | %6.1f/s | ETA %-12v",
				ev.CampaignDone, ev.CampaignTotal, ev.Workers, ev.Rate, ev.ETA.Truncate(time.Second))
			if ev.CampaignDone == ev.CampaignTotal {
				fmt.Fprintln(stderr)
			}
		}
		gefinProg = func(ev gefin.ProgressEvent) {
			if ev.CampaignDone%50 != 0 && ev.CampaignDone != ev.CampaignTotal {
				return
			}
			fmt.Fprintf(stderr, "\rgefin %6d/%d injections | %d workers | %6.1f/s | ETA %-12v",
				ev.CampaignDone, ev.CampaignTotal, ev.Workers, ev.Rate, ev.ETA.Truncate(time.Second))
			if ev.CampaignDone == ev.CampaignTotal {
				fmt.Fprintln(stderr)
			}
		}
	}
	beamRes, err := beam.Run(beamCfg, specs, beamProg)
	if err != nil {
		return err
	}

	injRes, err := gefin.Run(injCfg, specs, gefinProg)
	if err != nil {
		return err
	}
	if err := ocli.Close(); err != nil { // flush the trace before reporting
		return err
	}

	fmt.Fprintln(stdout, report.Fig3(beamRes))
	fmt.Fprintln(stdout, report.Fig4(injRes))
	if s := injRes.Prune; s != nil {
		fmt.Fprintln(stdout, report.PruneSplit(s))
	}
	if s := injRes.Dedup; s != nil {
		fmt.Fprintln(stdout, report.DedupSplit(s))
	}

	z := stats.ConfidenceZ(*confidence)
	var injs []fit.Injection
	var comparisons []fit.Comparison
	for i := range injRes.Workloads {
		w := &injRes.Workloads[i]
		injs = append(injs, fit.FromInjection(w, fit.DefaultFITRawPerBit))
		if bw, ok := beamRes.Workload(w.Workload); ok {
			comparisons = append(comparisons, fit.CompareCI(bw, w, fit.DefaultFITRawPerBit, z))
		}
	}
	fmt.Fprintln(stdout, report.Fig5(injs))
	fmt.Fprintln(stdout, report.FigRatio("Figure 6: SDC FIT comparison (beam vs injection)", comparisons, fault.ClassSDC))
	fmt.Fprintln(stdout, report.FigRatio("Figure 7: Application Crash FIT comparison", comparisons, fault.ClassAppCrash))
	fmt.Fprintln(stdout, report.FigRatio("Figure 8: System Crash FIT comparison", comparisons, fault.ClassSysCrash))
	fmt.Fprintln(stdout, report.Fig9(comparisons))
	fmt.Fprintln(stdout, report.Fig10(fit.AggregateComparisons(comparisons)))
	if s := report.Significance(comparisons, *confidence); s != "" {
		fmt.Fprintln(stdout, s)
	}
	fmt.Fprintln(stdout, report.TableIV(injRes))
	payload := struct {
		Beam        *beam.Result
		Injection   *gefin.Result
		Comparisons []fit.Comparison
		Aggregate   fit.Aggregate
	}{beamRes, injRes, comparisons, fit.AggregateComparisons(comparisons)}
	return cli.WriteJSON(cf.JSON, payload)
}

// MeasureTableI measures the cycles/sec of each abstraction layer on this
// host, reproducing the shape of the paper's Table I.
func MeasureTableI() ([]report.AbstractionRow, error) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		return nil, fmt.Errorf("crc32 workload missing")
	}
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleSmall)
	if err != nil {
		return nil, err
	}

	simRate := func(model soc.ModelKind) (float64, error) {
		m, err := soc.NewMachine(soc.PresetModel(), model)
		if err != nil {
			return 0, err
		}
		if err := m.LoadApp(built.Program); err != nil {
			return 0, err
		}
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			return 0, err
		}
		if err := m.Boot(50_000_000); err != nil {
			return 0, err
		}
		start := time.Now()
		res := m.Run(4_000_000_000)
		return float64(res.Cycles) / time.Since(start).Seconds(), nil
	}

	// Native: the Go reference computation, scored in nominal CPU cycles
	// (one cycle per processed byte-step, matching the simulated inner
	// loop's work).
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	start := time.Now()
	sum := nativeCRC32(data)
	nativeRate := float64(len(data)) * 9 / time.Since(start).Seconds()
	_ = sum

	atomicRate, err := simRate(soc.ModelAtomic)
	if err != nil {
		return nil, err
	}
	detailedRate, err := simRate(soc.ModelDetailed)
	if err != nil {
		return nil, err
	}

	// RTL: one gate-network evaluation per cycle.
	alu := rtl.NewALU()
	start = time.Now()
	const evals = 20000
	for i := 0; i < evals; i++ {
		alu.Exec(rtl.ALUOp(i%int(rtl.NumALUOps)), uint32(i), uint32(i*7))
	}
	rtlRate := evals / time.Since(start).Seconds()

	return []report.AbstractionRow{
		{Layer: "Software (native)", Model: "host Go reference", CyclesPerSec: nativeRate},
		{Layer: "Architecture", Model: "atomic model", CyclesPerSec: atomicRate},
		{Layer: "Microarchitecture", Model: "detailed out-of-order model", CyclesPerSec: detailedRate},
		{Layer: "RTL", Model: "gate-level ALU network", CyclesPerSec: rtlRate},
	}, nil
}

// nativeCRC32 is the host-speed reference for the Table I native row.
func nativeCRC32(data []byte) uint32 {
	var tab [256]uint32
	for i := range tab {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ c>>1
			} else {
				c >>= 1
			}
		}
		tab[i] = c
	}
	crc := ^uint32(0)
	for _, b := range data {
		crc = crc>>8 ^ tab[(crc^uint32(b))&0xFF]
	}
	return ^crc
}

// runCounterStudy reproduces Section IV-D: run each workload on both
// platform presets and report per-counter deviations.
func runCounterStudy(stdout io.Writer, specs []bench.Spec, scale bench.Scale) error {
	within := 0
	total := 0
	for _, spec := range specs {
		built, err := spec.Build(soc.UserAsmConfig(), scale)
		if err != nil {
			return err
		}
		zm, err := runOn(soc.PresetZynq(), built)
		if err != nil {
			return err
		}
		mm, err := runOn(soc.PresetModel(), built)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.CounterDeviation(spec.Name, zm, mm))
		for _, name := range cpu.CounterNames {
			zv, _ := zm.Value(name)
			mv, _ := mm.Value(name)
			total++
			if zv == 0 && mv == 0 {
				within++
				continue
			}
			if zv != 0 {
				dev := (float64(mv) - float64(zv)) / float64(zv)
				if dev < 0.10 && dev > -0.10 {
					within++
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%d of %d counters (%.0f%%) deviate by less than 10%% between the two setups\n",
		within, total, 100*float64(within)/float64(total))
	return nil
}

func runOn(preset soc.Config, built *bench.Built) (c cpu.Counters, err error) {
	m, err := soc.NewMachine(preset, soc.ModelDetailed)
	if err != nil {
		return c, err
	}
	if err := m.LoadApp(built.Program); err != nil {
		return c, err
	}
	if len(built.Input) > 0 {
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			return c, err
		}
	}
	if err := m.Boot(50_000_000); err != nil {
		return c, err
	}
	m.Run(4_000_000_000)
	return m.Core().Counters(), nil
}
