// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Heavy campaigns (both methodologies over all thirteen workloads) run
// once per process and are shared by every figure benchmark; tables are
// printed to stdout as they become available, and headline numbers are
// attached as benchmark metrics. EXPERIMENTS.md records the mapping to the
// paper's numbers.
package armsefi

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/fit"
	"armsefi/internal/core/gefin"
	"armsefi/internal/core/harness"
	"armsefi/internal/cpu"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/rtl"
	"armsefi/internal/soc"
)

// Campaign sizes for the benchmark harness: large enough for stable
// shapes, small enough to finish on a laptop. The cmd tools run the
// paper-sized campaigns (1000 faults/component, 20+ beam hours).
const (
	benchFaultsPerComponent  = 40
	benchBeamHours           = 20
	benchStrikesPerComponent = 15
	benchSeed                = 2019
)

// campaignData holds the shared campaign results.
type campaignData struct {
	once        sync.Once
	err         error
	beam        *beam.Result
	inj         *gefin.Result
	comparisons []fit.Comparison
	elapsed     time.Duration
}

var campaigns campaignData

// sharedCampaigns runs both methodology campaigns over all 13 workloads
// once per process, parallelised by the campaign engines' own worker
// pools (bounded at NumCPU live machines each).
func sharedCampaigns(b *testing.B) *campaignData {
	b.Helper()
	campaigns.once.Do(func() {
		start := time.Now()
		specs := bench.All()
		beamRes, err := beam.Run(beam.Config{
			Seed:                benchSeed,
			BeamHours:           benchBeamHours,
			StrikesPerComponent: benchStrikesPerComponent,
			Workers:             runtime.NumCPU(),
		}, specs, nil)
		if err != nil {
			campaigns.err = err
			return
		}
		injRes, err := gefin.Run(gefin.Config{
			Seed:               benchSeed,
			FaultsPerComponent: benchFaultsPerComponent,
			Workers:            runtime.NumCPU(),
		}, specs, nil)
		if err != nil {
			campaigns.err = err
			return
		}
		campaigns.beam = beamRes
		campaigns.inj = injRes
		for i := range injRes.Workloads {
			inj := fit.FromInjection(&injRes.Workloads[i], fit.DefaultFITRawPerBit)
			if bw, ok := beamRes.Workload(inj.Workload); ok {
				campaigns.comparisons = append(campaigns.comparisons, fit.Compare(bw, inj))
			}
		}
		campaigns.elapsed = time.Since(start)
		fmt.Printf("[campaigns: %d workloads x (%d beam strikes + %d x %d faults) in %v]\n",
			len(specs), benchStrikesPerComponent*fault.NumComponents,
			fault.NumComponents, benchFaultsPerComponent, campaigns.elapsed.Round(time.Second))
	})
	if campaigns.err != nil {
		b.Fatalf("campaigns: %v", campaigns.err)
	}
	return &campaigns
}

var printOnce sync.Map

// printTable prints a rendered table once per process.
func printTable(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

// --- Table I ---------------------------------------------------------------

func benchWorkload(b *testing.B) *bench.Built {
	b.Helper()
	spec, ok := bench.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing")
	}
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	return built
}

func benchSimRate(b *testing.B, model soc.ModelKind) {
	b.Helper()
	built := benchWorkload(b)
	m, err := soc.NewMachine(soc.PresetModel(), model)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadApp(built.Program); err != nil {
		b.Fatal(err)
	}
	if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
		b.Fatal(err)
	}
	if err := m.Boot(harness.BootBudget); err != nil {
		b.Fatal(err)
	}
	snap := m.SaveSnapshot()
	var cycles uint64
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RestoreSnapshot(snap, false)
		res := m.Run(harness.GoldenBudget)
		cycles += res.Cycles
	}
	b.StopTimer()
	rate := float64(cycles) / time.Since(start).Seconds()
	b.ReportMetric(rate, "cycles/sec")
}

// BenchmarkTableI_Architecture measures the atomic (architecture-level)
// model's simulation throughput — Table I, row 2.
func BenchmarkTableI_Architecture(b *testing.B) { benchSimRate(b, soc.ModelAtomic) }

// BenchmarkTableI_Microarchitecture measures the detailed out-of-order
// model's throughput — Table I, row 3.
func BenchmarkTableI_Microarchitecture(b *testing.B) { benchSimRate(b, soc.ModelDetailed) }

// BenchmarkTableI_Native measures the host-native reference computation —
// Table I, row 1 (cycles approximated as inner-loop operations).
func BenchmarkTableI_Native(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	start := time.Now()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += nativeCRC(data)
	}
	b.StopTimer()
	_ = sink
	b.ReportMetric(float64(b.N)*float64(len(data))*9/time.Since(start).Seconds(), "cycles/sec")
}

func nativeCRC(data []byte) uint32 {
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
	for _, v := range data {
		crc = crc>>8 ^ tab[(crc^uint32(v))&0xFF]
	}
	return ^crc
}

// BenchmarkTableI_RTL measures the gate-level ALU network — Table I, row 4
// (one network evaluation per cycle).
func BenchmarkTableI_RTL(b *testing.B) {
	alu := rtl.NewALU()
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alu.Exec(rtl.ALUOp(i%int(rtl.NumALUOps)), uint32(i), uint32(i*7))
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "cycles/sec")
}

// --- Tables II & III -------------------------------------------------------

// BenchmarkTableII_Setups renders the platform comparison table.
func BenchmarkTableII_Setups(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.TableII(soc.PresetZynq(), soc.PresetModel())
	}
	printTable("table2", s)
}

// BenchmarkTableIII_Benchmarks renders the workload/input table.
func BenchmarkTableIII_Benchmarks(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = report.TableIII(bench.All())
	}
	printTable("table3", s)
}

// --- Table IV --------------------------------------------------------------

// BenchmarkTableIV_ErrorMargins computes the Leveugle error margins of the
// shared injection campaign.
func BenchmarkTableIV_ErrorMargins(b *testing.B) {
	c := sharedCampaigns(b)
	var s string
	for i := 0; i < b.N; i++ {
		s = report.TableIV(c.inj)
	}
	printTable("table4", s)
	var avg float64
	n := 0
	for _, w := range c.inj.Workloads {
		for _, comp := range w.Components {
			avg += comp.ErrorMargin()
			n++
		}
	}
	b.ReportMetric(100*avg/float64(n), "avg-margin-%")
}

// --- Figures 3-10 ----------------------------------------------------------

// BenchmarkFig3_BeamFIT reports the beam campaign FIT rates.
func BenchmarkFig3_BeamFIT(b *testing.B) {
	c := sharedCampaigns(b)
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig3(c.beam)
	}
	printTable("fig3", s)
	var total float64
	for i := range c.beam.Workloads {
		total += c.beam.Workloads[i].TotalFIT()
	}
	b.ReportMetric(total/float64(len(c.beam.Workloads)), "avg-total-FIT")
}

// BenchmarkFig4_AVF reports the fault-injection classification.
func BenchmarkFig4_AVF(b *testing.B) {
	c := sharedCampaigns(b)
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig4(c.inj)
	}
	printTable("fig4", s)
	var avf float64
	n := 0
	for _, w := range c.inj.Workloads {
		for _, comp := range w.Components {
			avf += comp.AVF()
			n++
		}
	}
	b.ReportMetric(100*avf/float64(n), "avg-AVF-%")
}

// BenchmarkFig5_InjectionFIT reports the AVF-to-FIT conversion.
func BenchmarkFig5_InjectionFIT(b *testing.B) {
	c := sharedCampaigns(b)
	var injs []fit.Injection
	var s string
	for i := 0; i < b.N; i++ {
		injs = injs[:0]
		for j := range c.inj.Workloads {
			injs = append(injs, fit.FromInjection(&c.inj.Workloads[j], fit.DefaultFITRawPerBit))
		}
		s = report.Fig5(injs)
	}
	printTable("fig5", s)
	var total float64
	for _, in := range injs {
		total += in.Total()
	}
	b.ReportMetric(total/float64(len(injs)), "avg-total-FIT")
}

func benchRatioFigure(b *testing.B, key, title string, cls fault.Class) {
	c := sharedCampaigns(b)
	var s string
	for i := 0; i < b.N; i++ {
		s = report.FigRatio(title, c.comparisons, cls)
	}
	printTable(key, s)
	var logsum float64
	for _, cmp := range c.comparisons {
		logsum += math.Log(math.Abs(cmp.ClassRatio(cls)))
	}
	b.ReportMetric(math.Exp(logsum/float64(len(c.comparisons))), "geomean-ratio")
}

// BenchmarkFig6_SDCComparison reproduces the SDC FIT comparison.
func BenchmarkFig6_SDCComparison(b *testing.B) {
	benchRatioFigure(b, "fig6", "Figure 6: SDC FIT comparison (beam vs injection)", fault.ClassSDC)
}

// BenchmarkFig7_AppCrashComparison reproduces the Application Crash
// comparison.
func BenchmarkFig7_AppCrashComparison(b *testing.B) {
	benchRatioFigure(b, "fig7", "Figure 7: Application Crash FIT comparison", fault.ClassAppCrash)
}

// BenchmarkFig8_SysCrashComparison reproduces the System Crash comparison.
func BenchmarkFig8_SysCrashComparison(b *testing.B) {
	benchRatioFigure(b, "fig8", "Figure 8: System Crash FIT comparison", fault.ClassSysCrash)
}

// BenchmarkFig9_SDCAppCrashComparison reproduces the combined comparison.
func BenchmarkFig9_SDCAppCrashComparison(b *testing.B) {
	c := sharedCampaigns(b)
	var s string
	for i := 0; i < b.N; i++ {
		s = report.Fig9(c.comparisons)
	}
	printTable("fig9", s)
	var logsum float64
	for _, cmp := range c.comparisons {
		logsum += math.Log(math.Abs(cmp.SDCAppRatio()))
	}
	b.ReportMetric(math.Exp(logsum/float64(len(c.comparisons))), "geomean-ratio")
}

// BenchmarkFig10_Aggregate reproduces the headline aggregate comparison.
func BenchmarkFig10_Aggregate(b *testing.B) {
	c := sharedCampaigns(b)
	var agg fit.Aggregate
	var s string
	for i := 0; i < b.N; i++ {
		agg = fit.AggregateComparisons(c.comparisons)
		s = report.Fig10(agg)
	}
	printTable("fig10", s)
	b.ReportMetric(math.Abs(agg.RatioSDC), "sdc-ratio")
	b.ReportMetric(math.Abs(agg.RatioSDCApp), "sdcapp-ratio")
	b.ReportMetric(math.Abs(agg.RatioTotal), "total-ratio")
}

// --- Section IV-D counters ------------------------------------------------

// BenchmarkCounterDeviation runs one workload on both platform presets and
// reports the worst counter deviation (expected in the TLB counters, per
// the paper and [71]).
func BenchmarkCounterDeviation(b *testing.B) {
	spec, _ := bench.ByName("qsort")
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	run := func(preset soc.Config) cpu.Counters {
		m, err := soc.NewMachine(preset, soc.ModelDetailed)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadApp(built.Program); err != nil {
			b.Fatal(err)
		}
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			b.Fatal(err)
		}
		if err := m.Boot(harness.BootBudget); err != nil {
			b.Fatal(err)
		}
		m.Run(harness.GoldenBudget)
		return m.Core().Counters()
	}
	var zc, mc cpu.Counters
	for i := 0; i < b.N; i++ {
		zc = run(soc.PresetZynq())
		mc = run(soc.PresetModel())
	}
	printTable("counters", report.CounterDeviation("qsort", zc, mc))
	worst := 0.0
	for _, name := range cpu.CounterNames {
		zv, _ := zc.Value(name)
		mv, _ := mc.Value(name)
		if zv == 0 {
			continue
		}
		dev := math.Abs(float64(mv)-float64(zv)) / float64(zv)
		if dev > worst {
			worst = dev
		}
	}
	b.ReportMetric(100*worst, "worst-deviation-%")
}

// --- FIT-raw probe ----------------------------------------------------------

// BenchmarkFITRawProbe measures the raw per-bit FIT with the Section VI L1
// pattern probe under the beam.
func BenchmarkFITRawProbe(b *testing.B) {
	var measured float64
	for i := 0; i < b.N; i++ {
		var err error
		measured, _, err = beam.MeasureFITRaw(beam.Config{
			Seed:                int64(benchSeed + i),
			BeamHours:           40,
			StrikesPerComponent: 40,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("fitraw", fmt.Sprintf(
		"FIT-raw probe: measured %.3g FIT/bit (configured technology: %.3g FIT/bit; paper: 2.76e-5)\n",
		measured, beam.DefaultBitXS*beam.FluxNYC*beam.FITHours))
	b.ReportMetric(measured*1e5, "FITraw-e5")
}

// --- Ablations ---------------------------------------------------------------

func ablationWorkbench(b *testing.B, model soc.ModelKind) *harness.Workbench {
	b.Helper()
	spec, _ := bench.ByName("qsort")
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	wb, err := harness.New(soc.PresetModel(), model, built)
	if err != nil {
		b.Fatal(err)
	}
	return wb
}

// avfOf runs n faults on comp and returns the AVF.
func avfOf(wb *harness.Workbench, rng *rand.Rand, comp fault.Component, n int, warm bool) float64 {
	bad := 0
	size := fault.SizeBits(wb.Machine, comp)
	for i := 0; i < n; i++ {
		f := fault.Fault{
			Comp:  comp,
			Bit:   uint64(rng.Int63n(int64(size))),
			Cycle: uint64(rng.Int63n(int64(wb.Golden.Cycles))),
		}
		if cls, _, _, _ := wb.RunFaultLadder(f, warm); cls != fault.ClassMasked {
			bad++
		}
	}
	return float64(bad) / float64(n)
}

// BenchmarkAblation_TagArrays contrasts data-array and tag-array cache
// injection: tag flips are overwhelmingly benign (misses that refill), as
// the paper observes for the TLB virtual tags.
func BenchmarkAblation_TagArrays(b *testing.B) {
	wb := ablationWorkbench(b, soc.ModelDetailed)
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 40
	var dataAVF, tagAVF float64
	for i := 0; i < b.N; i++ {
		dataAVF = avfOf(wb, rng, fault.CompL1D, n, false)
		tagAVF = avfOf(wb, rng, fault.CompL1DTag, n, false)
	}
	printTable("abl-tag", fmt.Sprintf(
		"Ablation (tag arrays): L1D data AVF %.3f vs L1D tag AVF %.3f over %d faults each\n",
		dataAVF, tagAVF, n))
	b.ReportMetric(dataAVF, "data-AVF")
	b.ReportMetric(tagAVF, "tag-AVF")
}

// BenchmarkAblation_MultiBit contrasts single- and adjacent-double-bit
// upsets on the register file (a structure with enough AVF for the
// difference to resolve at bench sample sizes) — the fault-model
// simplification discussed in Section II.
func BenchmarkAblation_MultiBit(b *testing.B) {
	wb := ablationWorkbench(b, soc.ModelDetailed)
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 100
	size := fault.SizeBits(wb.Machine, fault.CompRegFile)
	var single, double float64
	for i := 0; i < b.N; i++ {
		single = avfOf(wb, rng, fault.CompRegFile, n, false)
		bad := 0
		for j := 0; j < n; j++ {
			bit := uint64(rng.Int63n(int64(size - 1)))
			cycle := uint64(rng.Int63n(int64(wb.Golden.Cycles)))
			wb.Machine.RestoreSnapshot(wb.Snap, false)
			res := wb.Machine.RunWithInjection(wb.Watchdog, cycle, func() {
				fault.Apply(wb.Machine, fault.Fault{Comp: fault.CompRegFile, Bit: bit})
				fault.Apply(wb.Machine, fault.Fault{Comp: fault.CompRegFile, Bit: bit + 1})
			})
			if fault.Classify(res, wb.Built.Golden, wb.Machine.Cfg.TimerPeriod) != fault.ClassMasked {
				bad++
			}
		}
		double = float64(bad) / n
	}
	printTable("abl-multibit", fmt.Sprintf(
		"Ablation (multi-bit, register file): single-bit AVF %.3f vs adjacent-double-bit AVF %.3f\n",
		single, double))
	b.ReportMetric(single, "single-AVF")
	b.ReportMetric(double, "double-AVF")
}

// BenchmarkAblation_WarmCaches contrasts GeFIN's cache-reset-per-run
// methodology with warm-cache (live-board) injection. The deterministic
// mechanism — kernel lines resident and exposed in the warm state — is
// reported directly via the residency profile alongside the sampled AVFs.
func BenchmarkAblation_WarmCaches(b *testing.B) {
	wb := ablationWorkbench(b, soc.ModelDetailed)
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 60
	var cold, warm float64
	var coldKernel, warmKernel int
	for i := 0; i < b.N; i++ {
		wb.Machine.RestoreSnapshot(wb.Snap, false)
		coldKernel = soc.ProfileCache(wb.Machine.Mem.L2).KernelLines()
		wb.Machine.RestoreSnapshot(wb.Snap, true)
		warmKernel = soc.ProfileCache(wb.Machine.Mem.L2).KernelLines()
		cold = avfOf(wb, rng, fault.CompL2, n, false)
		warm = avfOf(wb, rng, fault.CompL2, n, true)
	}
	printTable("abl-warm", fmt.Sprintf(
		"Ablation (warm caches): kernel-owned L2 lines %d cold vs %d warm; sampled L2 AVF %.3f cold vs %.3f warm\n",
		coldKernel, warmKernel, cold, warm))
	b.ReportMetric(cold, "cold-AVF")
	b.ReportMetric(warm, "warm-AVF")
	b.ReportMetric(float64(warmKernel), "warm-kernel-lines")
}

// BenchmarkAblation_AtomicInjection contrasts injection on the two CPU
// models: the functional-model shortcut gem5 users sometimes take.
func BenchmarkAblation_AtomicInjection(b *testing.B) {
	detailed := ablationWorkbench(b, soc.ModelDetailed)
	atomic := ablationWorkbench(b, soc.ModelAtomic)
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 50
	var dAVF, aAVF float64
	for i := 0; i < b.N; i++ {
		dAVF = avfOf(detailed, rng, fault.CompL1D, n, false)
		aAVF = avfOf(atomic, rng, fault.CompL1D, n, false)
	}
	printTable("abl-atomic", fmt.Sprintf(
		"Ablation (CPU model): L1D AVF detailed %.3f vs atomic %.3f\n", dAVF, aAVF))
	b.ReportMetric(dAVF, "detailed-AVF")
	b.ReportMetric(aAVF, "atomic-AVF")
}

// BenchmarkAblation_PredictorSizing measures the front-end sensitivity of
// the detailed model: IPC with the full predictor versus a minimal one
// (the documented model/hardware front-end gap of Section IV-D).
func BenchmarkAblation_PredictorSizing(b *testing.B) {
	spec, _ := bench.ByName("dijkstra")
	built, err := spec.Build(soc.UserAsmConfig(), bench.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	ipc := func(btb, pred int) float64 {
		cfg := soc.PresetModel()
		cfg.BTBEntries = btb
		cfg.PredictorEntries = pred
		m, err := soc.NewMachine(cfg, soc.ModelDetailed)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadApp(built.Program); err != nil {
			b.Fatal(err)
		}
		if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
			b.Fatal(err)
		}
		if err := m.Boot(harness.BootBudget); err != nil {
			b.Fatal(err)
		}
		res := m.Run(harness.GoldenBudget)
		return float64(res.Instructions) / float64(res.Cycles)
	}
	var full, minimal float64
	for i := 0; i < b.N; i++ {
		full = ipc(256, 512)
		minimal = ipc(4, 4)
	}
	printTable("abl-pred", fmt.Sprintf(
		"Ablation (predictor sizing): dijkstra IPC %.3f with 256/512 entries vs %.3f with 4/4\n",
		full, minimal))
	b.ReportMetric(full, "ipc-full")
	b.ReportMetric(minimal, "ipc-minimal")
}

// BenchmarkAblation_ACEvsInjection contrasts single-simulation ACE
// lifetime analysis with statistical fault injection (the Section II
// methodology ladder; ACE's over-estimation bias per [28]).
func BenchmarkAblation_ACEvsInjection(b *testing.B) {
	spec, _ := bench.ByName("qsort")
	var aceRes *ace.Result
	var injRes *gefin.WorkloadResult
	for i := 0; i < b.N; i++ {
		var err error
		aceRes, err = ace.Run(ace.Config{}, spec)
		if err != nil {
			b.Fatal(err)
		}
		injRes, err = gefin.RunWorkload(gefin.Config{
			Seed:               benchSeed,
			FaultsPerComponent: 50,
			Components:         []fault.Component{fault.CompL1D, fault.CompDTLB},
		}, spec, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	var rows []report.ACERow
	for _, est := range aceRes.Components {
		if inj, ok := injRes.Component(est.Comp); ok {
			rows = append(rows, report.ACERow{
				Comp: est.Comp, ACEAVF: est.AVF,
				InjectionAVF: inj.AVF(), Margin: inj.ErrorMargin(),
			})
		}
	}
	printTable("abl-ace", report.ACEComparison("qsort", rows))
	if l1d, ok := aceRes.Component(fault.CompL1D); ok {
		b.ReportMetric(l1d.AVF, "ace-l1d-AVF")
	}
}

// BenchmarkCampaignParallel measures the parallel campaign engine's
// speedup on a tiny crc32 campaign: the same seeded fault plan executed
// with one worker (the sequential engine) and with every host core. The
// Result is bit-identical in both arms — only the wall clock moves.
func BenchmarkCampaignParallel(b *testing.B) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing")
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := gefin.RunWorkload(gefin.Config{
					Seed:               benchSeed,
					FaultsPerComponent: 24,
					Workers:            workers,
					Components: []fault.Component{
						fault.CompRegFile, fault.CompL1D, fault.CompDTLB,
					},
				}, spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.GoldenCycles == 0 {
					b.Fatal("empty campaign result")
				}
			}
		})
	}
}

// BenchmarkCampaignCheckpointed measures the checkpoint ladder's speedup
// on the BenchmarkCampaignParallel campaign: the same seeded fault plan at
// full worker count, once with the ladder off and once with it on. The
// aggregated Result is bit-identical in both arms (pinned by
// TestLadderAndWorkerInvariance) — only the wall clock moves. The
// acceptance floor is 2x throughput on the checkpointed arm; the measured
// ratio is recorded in BENCH_checkpoint.json.
func BenchmarkCampaignCheckpointed(b *testing.B) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing")
	}
	run := func(b *testing.B, every uint64) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := gefin.RunWorkload(gefin.Config{
				Seed:               benchSeed,
				FaultsPerComponent: 24,
				Workers:            runtime.NumCPU(),
				CheckpointEvery:    every,
				Components: []fault.Component{
					fault.CompRegFile, fault.CompL1D, fault.CompDTLB,
				},
			}, spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.GoldenCycles == 0 {
				b.Fatal("empty campaign result")
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, 0) })
	// The default spacing adapts to the short tiny-scale golden run (see
	// harness.BuildLadder), so the arm measures exactly what the default
	// -checkpoint-every flag gives.
	b.Run("checkpointed", func(b *testing.B) { run(b, soc.DefaultCheckpointEvery) })
}

// BenchmarkCampaignPruned measures the ACE pre-filter's speedup on a
// crc32 campaign over the prune-eligible components (caches and TLBs):
// the same seeded fault plan with the checkpoint ladder on, once
// simulating every injection and once pruning the provably-masked ones
// to predicted verdicts. The aggregated Result is bit-identical in both
// arms (pinned by TestPruneResultInvariance) — only the wall clock
// moves. The headline acceptance ratio is cross-benchmark: the pruned
// arm (96 planned injections) must land at least 3x under
// BenchmarkCampaignCheckpointed/checkpointed (72 injections, no
// pre-filter) from the same run, with ~10x the target against the
// plain arm; the within-campaign ratio is bounded by the genuinely
// undecided (live-hit, often crashing) injections that must always
// simulate. Measured numbers and the predicted-fraction floor are
// recorded in BENCH_prune.json.
func BenchmarkCampaignPruned(b *testing.B) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing")
	}
	specs := []bench.Spec{spec}
	run := func(b *testing.B, prune bool) {
		b.Helper()
		var frac float64
		for i := 0; i < b.N; i++ {
			res, err := gefin.Run(gefin.Config{
				Seed:               benchSeed,
				FaultsPerComponent: 24,
				Workers:            runtime.NumCPU(),
				CheckpointEvery:    soc.DefaultCheckpointEvery,
				Prune:              prune,
				Components: []fault.Component{
					fault.CompL1I, fault.CompL1D, fault.CompL2, fault.CompDTLB,
				},
			}, specs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Workloads) == 0 || res.Workloads[0].GoldenCycles == 0 {
				b.Fatal("empty campaign result")
			}
			if prune {
				if res.Prune == nil || res.Prune.Predicted == 0 {
					b.Fatal("pruned arm resolved no injections by prediction")
				}
				frac = res.Prune.PredictedFraction()
			}
		}
		if prune {
			b.ReportMetric(frac, "predicted-frac")
		}
	}
	b.Run("checkpointed", func(b *testing.B) { run(b, false) })
	b.Run("pruned", func(b *testing.B) { run(b, true) })
}

// BenchmarkCampaignDeduped measures equivalence-class deduplication's
// within-campaign speedup on an fft DTLB campaign riding on the ACE
// pre-filter: the same seeded plan with the ladder and pruning on, once
// simulating every prune-undecided injection and once resolving
// equivalence-class members from their shard-local representative's
// outcome. The aggregated Result is bit-identical in both arms (pinned
// by TestDedupResultInvariance) — only the wall clock moves. At this
// plan size over half of the undecided injections are class members
// (the plan is dense enough that most (site, quiescent-window) pairs
// repeat), so the deduped arm must land at least 1.8x under the pruned
// arm — the ratio guard recorded in BENCH_dedup.json; the deduped-frac
// metric records the member split.
func BenchmarkCampaignDeduped(b *testing.B) {
	spec, ok := bench.ByName("fft")
	if !ok {
		b.Fatal("fft missing")
	}
	specs := []bench.Spec{spec}
	run := func(b *testing.B, dedup bool) {
		b.Helper()
		var frac float64
		for i := 0; i < b.N; i++ {
			res, err := gefin.Run(gefin.Config{
				Seed:               benchSeed,
				FaultsPerComponent: 120000,
				Workers:            runtime.NumCPU(),
				CheckpointEvery:    soc.DefaultCheckpointEvery,
				Prune:              true,
				Dedup:              dedup,
				Components:         []fault.Component{fault.CompDTLB},
			}, specs, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Workloads) == 0 || res.Workloads[0].GoldenCycles == 0 {
				b.Fatal("empty campaign result")
			}
			if dedup {
				if res.Dedup == nil || res.Dedup.Deduped == 0 {
					b.Fatal("deduped arm resolved no injections from class representatives")
				}
				frac = res.Dedup.DedupedFraction()
			}
		}
		if dedup {
			b.ReportMetric(frac, "deduped-frac")
		}
	}
	b.Run("pruned", func(b *testing.B) { run(b, false) })
	b.Run("deduped", func(b *testing.B) { run(b, true) })
}

// BenchmarkCampaignTraced measures the observability layer's overhead on
// the BenchmarkCampaignParallel campaign: the untraced arm against full
// instrumentation (JSONL trace to disk plus the metrics registry). The
// acceptance budget is <5% on the traced arm.
func BenchmarkCampaignTraced(b *testing.B) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing")
	}
	runOnce := func(b *testing.B, o *obs.Observer) {
		b.Helper()
		res, err := gefin.RunWorkload(gefin.Config{
			Seed:               benchSeed,
			FaultsPerComponent: 24,
			Workers:            runtime.NumCPU(),
			Components: []fault.Component{
				fault.CompRegFile, fault.CompL1D, fault.CompDTLB,
			},
			Obs: o,
		}, spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.GoldenCycles == 0 {
			b.Fatal("empty campaign result")
		}
	}
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, nil)
		}
	})
	b.Run("traced", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "trace.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		o := obs.New(obs.Options{TraceWriter: f})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(b, o)
		}
		b.StopTimer()
		if err := o.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCampaignProvenance measures the propagation-provenance probe's
// overhead on the BenchmarkCampaignParallel campaign: the disabled arm is
// the plain engine (nil probe, every taint hook a nil-check), the enabled
// arm taints every injection and takes a mechanism verdict. Results are
// bit-identical in both arms (pinned by TestProvenanceResultInvariance);
// the acceptance budget is noise on the disabled arm and <10% on the
// enabled one. The measured numbers are recorded in BENCH_prov.json.
func BenchmarkCampaignProvenance(b *testing.B) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		b.Fatal("crc32 missing")
	}
	run := func(b *testing.B, prov bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := gefin.RunWorkload(gefin.Config{
				Seed:               benchSeed,
				FaultsPerComponent: 24,
				Workers:            runtime.NumCPU(),
				Provenance:         prov,
				Components: []fault.Component{
					fault.CompRegFile, fault.CompL1D, fault.CompDTLB,
				},
			}, spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.GoldenCycles == 0 {
				b.Fatal("empty campaign result")
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}
