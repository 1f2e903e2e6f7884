// Command beamsim exposes workloads to the simulated neutron beam (the
// LANSCE stand-in) and prints the Figure 3 beam FIT rates, or measures the
// raw per-bit FIT with the Section VI L1 probe.
//
// Usage:
//
//	beamsim [-workloads crc32,qsort] [-hours 4] [-scale tiny] [-seed 1] [-workers N]
//	        [-trace trace.jsonl] [-prov] [-metrics-addr 127.0.0.1:9100]
//	        [-checkpoint-every 150000] [-max-checkpoints 64]
//	        [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	        [-remote http://host:8440]
//	        [-target-margin 0.04] [-confidence 0.99] [-verify]
//	beamsim -fitraw [-hours 20]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"armsefi/internal/cli"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fit"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		cli.Exit("beamsim", err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beamsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	cf := cli.Register(fs, true)
	hours := fs.Float64("hours", 4, "effective beam hours per workload (paper: ~20)")
	fitRaw := fs.Bool("fitraw", false, "run the L1 FIT-raw probe measurement instead")
	fs.Parse(args)
	if *fitRaw && cf.Remote != "" {
		return fmt.Errorf("-fitraw runs locally only: the campaign service executes beam campaigns, not the FIT-raw probe measurement")
	}

	specs, scale, err := cf.Resolve()
	if err != nil {
		return err
	}
	cfg := beam.Config{
		Scale: scale, Seed: cf.Seed, BeamHours: *hours, Workers: cf.Workers,
		CheckpointEvery: cf.CheckpointEvery, MaxCheckpoints: cf.MaxCheckpoints, Provenance: cf.Prov,
		TargetMargin: cf.TargetMargin, Confidence: cf.Confidence, Verify: cf.Verify,
	}
	if err := cfg.Validate(); err != nil {
		return err
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
	cfg.Obs = ocli.Obs
	var progress beam.Progress
	if !cf.Quiet {
		// One aggregated campaign line: per-workload `\r` lines would
		// interleave across concurrent workloads. Events are serialised by
		// the engine, so no lock is needed here.
		progress = func(ev beam.ProgressEvent) {
			fmt.Fprintf(stderr, "\r%6d/%d strikes | %d workers | %6.1f strikes/s | ETA %-12v",
				ev.CampaignDone, ev.CampaignTotal, ev.Workers, ev.Rate, ev.ETA.Truncate(time.Second))
			if ev.CampaignDone == ev.CampaignTotal {
				fmt.Fprintln(stderr)
			}
		}
	}

	if *fitRaw {
		measured, res, err := beam.MeasureFITRaw(cfg, progress)
		if err != nil {
			return err
		}
		if err := stopProfiles(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "FIT-raw probe: %d mismatches over fluence %.3g n/cm^2\n",
			res.TotalMismatches, res.Fluence)
		fmt.Fprintf(stdout, "measured FIT_raw: %.3g FIT/bit (paper: %.3g; configured cross-section implies %.3g)\n",
			measured, fit.DefaultFITRawPerBit, beam.DefaultBitXS*beam.FluxNYC*beam.FITHours)
		return nil
	}

	var res *beam.Result
	if cf.Remote != "" {
		req := serve.SubmitRequest{Kind: serve.KindBeam, Beam: &cfg, Workloads: cli.Names(specs)}
		res, err = cli.Remote(cf.Remote, req, cf.Quiet, stderr, (*serve.Client).BeamResults)
	} else {
		res, err = beam.Run(cfg, specs, progress)
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
	fmt.Fprintln(stdout, report.Fig3(res))
	if s := res.Stop; s != nil {
		fmt.Fprintln(stdout, report.StopBeam(s))
	}
	return nil
}
