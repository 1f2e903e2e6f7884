// Command gefin runs microarchitectural statistical fault-injection
// campaigns (the paper's GeFIN-over-gem5 methodology) and prints the
// Figure 4 classification, the Figure 5 FIT conversion, and the Table IV
// error margins.
//
// Usage:
//
//	gefin [-workloads crc32,qsort] [-faults 1000] [-scale tiny]
//	      [-seed 1] [-workers N] [-warm] [-tlb-full] [-model detailed] [-quiet]
//	      [-components l1d,dtlb] [-trace trace.jsonl] [-prov]
//	      [-metrics-addr 127.0.0.1:9100]
//	      [-checkpoint-every 150000] [-max-checkpoints 64]
//	      [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	      [-prune] [-dedup] [-exhaustive] [-verify]
//	      [-remote http://host:8440]
//	      [-target-margin 0.04] [-confidence 0.99]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/cli"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/fit"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/serve"
	"armsefi/internal/soc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gefin:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gefin", flag.ExitOnError)
	fs.SetOutput(stderr)
	cf := cli.Register(fs, true)
	var (
		faults    = fs.Int("faults", 1000, "faults per component (paper: 1000)")
		warm      = fs.Bool("warm", false, "ablation: start injection runs with warm caches")
		tlbFull   = fs.Bool("tlb-full", false, "ablation: inject whole TLB entries incl. virtual tags")
		modelFlag = fs.String("model", "detailed", "CPU model (atomic|detailed)")
		fitRaw    = fs.Float64("fitraw", fit.DefaultFITRawPerBit, "raw FIT per bit for the FIT conversion")
		aceMode   = fs.Bool("ace", false, "also run ACE lifetime analysis and compare AVFs")
		prune     = fs.Bool("prune", false,
			"pre-filter the fault plan against a liveness replay and skip provably-masked injections (results are byte-identical either way)")
		dedup = fs.Bool("dedup", false,
			"collapse planned injections into equivalence classes (same fault site, same quiescent window) and simulate one representative per class (results are byte-identical either way)")
		exhaustive = fs.Bool("exhaustive", false,
			"enumerate every (fault site x quiescent window) of the selected components instead of sampling, for a population-exact AVF (local only; use -components to pick liveness-covered targets)")
		components = fs.String("components", "",
			"comma-separated component targets (regfile,l1i,l1d,l2,itlb,dtlb; default: all six)")
	)
	fs.Parse(args)

	specs, scale, err := cf.Resolve()
	if err != nil {
		return err
	}
	model, err := soc.ParseModel(*modelFlag)
	if err != nil {
		return err
	}
	var comps []fault.Component
	if *components != "" {
		for _, name := range strings.Split(*components, ",") {
			c, ok := fault.ComponentByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown component %q", name)
			}
			comps = append(comps, c)
		}
	}
	if *exhaustive && cf.Remote != "" {
		return fmt.Errorf("-exhaustive runs locally only: the sweep plan is enumerated from each workload's liveness replay, so the campaign service cannot cut shard ranges at submission time")
	}
	ocli, err := obs.SetupCLI(cf.Trace, cf.MetricsAddr)
	if err != nil {
		return err
	}
	defer ocli.Close()
	stopProfiles, err := obs.StartProfiles(cf.CPUProfile, cf.MemProfile)
	if err != nil {
		return err
	}
	cfg := gefin.Config{
		Model:              model,
		Scale:              scale,
		FaultsPerComponent: *faults,
		Components:         comps,
		Seed:               cf.Seed,
		Workers:            cf.Workers,
		WarmCaches:         *warm,
		TLBFullEntry:       *tlbFull,
		CheckpointEvery:    cf.CheckpointEvery,
		MaxCheckpoints:     cf.MaxCheckpoints,
		Obs:                ocli.Obs,
		Provenance:         cf.Prov,
		Prune:              *prune,
		Dedup:              *dedup,
		Exhaustive:         *exhaustive,
		TargetMargin:       cf.TargetMargin,
		Confidence:         cf.Confidence,
		Verify:             cf.Verify,
	}
	var progress gefin.Progress
	if !cf.Quiet {
		// Workloads run concurrently, so a per-workload `\r` line would
		// interleave; print one aggregated campaign line instead. The
		// engine serialises progress events, so the closure needs no lock.
		progress = func(ev gefin.ProgressEvent) {
			if ev.CampaignDone%100 != 0 && ev.CampaignDone != ev.CampaignTotal {
				return
			}
			fmt.Fprintf(stderr, "\r%7d/%d injections | %d workers | %7.1f inj/s | ETA %-12v",
				ev.CampaignDone, ev.CampaignTotal, ev.Workers, ev.Rate, ev.ETA.Truncate(time.Second))
			if ev.CampaignDone == ev.CampaignTotal {
				fmt.Fprintln(stderr)
			}
		}
	}
	var res *gefin.Result
	if cf.Remote != "" {
		req := serve.SubmitRequest{Kind: serve.KindInjection, Injection: &cfg, Workloads: cli.Names(specs)}
		res, err = cli.Remote(cf.Remote, req, cf.Quiet, stderr, (*serve.Client).InjectionResults)
	} else {
		res, err = gefin.Run(cfg, specs, progress)
	}
	if err != nil {
		return err
	}
	if err := stopProfiles(); err != nil { // profile the campaign, not reporting
		return err
	}
	if err := ocli.Close(); err != nil { // flush the trace before reporting
		return err
	}
	if err := cli.WriteJSON(cf.JSON, res); err != nil {
		return err
	}
	fmt.Fprintln(stdout, report.Fig4(res))
	if s := res.Prune; s != nil {
		fmt.Fprintln(stdout, report.PruneSplit(s))
	}
	if s := res.Dedup; s != nil {
		fmt.Fprintln(stdout, report.DedupSplit(s))
	}
	if s := res.Sweep; s != nil {
		fmt.Fprintln(stdout, report.SweepTable(s))
	}
	if s := res.Stop; s != nil {
		fmt.Fprintln(stdout, report.StopInjection(s))
	}
	injs := make([]fit.Injection, 0, len(res.Workloads))
	for i := range res.Workloads {
		injs = append(injs, fit.FromInjection(&res.Workloads[i], *fitRaw))
	}
	fmt.Fprintln(stdout, report.Fig5(injs))
	fmt.Fprintln(stdout, report.TableIV(res))
	fmt.Fprintln(stdout, report.StrikeContext(res))
	if *aceMode {
		for i := range res.Workloads {
			w := &res.Workloads[i]
			spec, _ := bench.ByName(w.Workload)
			aceRes, err := ace.Run(ace.Config{Scale: scale, Model: model, Obs: ocli.Obs}, spec)
			if err != nil {
				return err
			}
			var rows []report.ACERow
			for _, est := range aceRes.Components {
				if inj, ok := w.Component(est.Comp); ok {
					rows = append(rows, report.ACERow{
						Comp:         est.Comp,
						ACEAVF:       est.AVF,
						InjectionAVF: inj.AVF(),
						Margin:       inj.ErrorMargin(),
					})
				}
			}
			fmt.Fprintln(stdout, report.ACEComparison(w.Workload, rows))
		}
	}
	return nil
}
