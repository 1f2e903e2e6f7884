// Command tracestat inspects campaigns: it reads JSONL lifecycle traces
// (gefin/beamsim/fitcompare -trace, or campaignd's merged fleet traces)
// into one summary, prints every table the trace supports, and
// cross-checks the trace against the engine's exported Result, exiting
// nonzero on any disagreement. The trace records every injection and
// strike independently, so exact agreement with the aggregate Result
// certifies both, for a multi-node campaign's merged fleet trace too.
//
// The tables, as the trace supports them: outcome classes per workload x
// component; for provenance traces (-prov), per-workload masking
// mechanisms — the "why was this fault masked?" decomposition the
// paper's Section V discusses qualitatively; for pruned or deduplicated
// campaigns, the predicted / deduped / simulated split; and for
// convergence-observed campaigns, the final estimators' achieved margins
// and the faults sequential early stopping saved.
//
// Usage:
//
//	tracestat trace.jsonl
//	tracestat node-a.jsonl node-b.jsonl          # merge several nodes' traces
//	tracestat -workload crc32 -json report.json trace.jsonl
//	tracestat -against gefin-result.json trace.jsonl
//	tracestat -against-beam beam-result.json trace.jsonl
//	tracestat -require-prov -against gefin-result.json trace.jsonl
//	tracestat -remote http://host:8440               # list campaigns
//	tracestat -remote http://host:8440 -campaign ID [-follow]
//
// With -remote and -campaign, tracestat renders the coordinator's merged
// convergence view; -follow redraws it every 2 s until the campaign
// completes, is cancelled, or every estimator meets the target margin.
// A complete campaign's merged fleet trace and assembled Result are then
// fetched and verified against each other (exact counts; bit-identical
// beam event sums); a campaign still running stops after the view.
//
// Every run verifies that the mechanism verdicts a trace carries
// partition its outcome classes exactly; -require-prov also fails a trace
// without them. A pruned campaign's (gefin -prune) predicted records
// carry verdicts even without -prov: they must be masked with a masking
// mechanism, and their count must match the Result's prune summary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

// pollEvery is the redraw interval of -follow.
const pollEvery = 2 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

// check verifies a trace summary against one campaign Result, printing
// its verdicts to out, and returns the mismatch count, as verifyInjection
// and verifyBeam do.
type check func(s *obs.Summary, out io.Writer) int

// inspection is what one invocation prints and verifies, wherever the
// trace comes from.
type inspection struct {
	workload, jsonOut  string
	requireProv, quiet bool
	checks             []check
}

// run is the command: args without the program name; tables and
// verdicts go to stdout, flag diagnostics to stderr. A trace path of "-"
// reads standard input.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          inspection
		against     = fs.String("against", "", "verify the trace against a gefin campaign Result JSON")
		againstBeam = fs.String("against-beam", "", "verify the trace against a beam campaign Result JSON")
		remote      = fs.String("remote", "", "coordinator URL: list its campaigns, or inspect the -campaign")
		campaignID  = fs.String("campaign", "", "campaign id on the remote coordinator: render its convergence view and, once complete, verify its merged fleet trace against its Result")
		follow      = fs.Bool("follow", false, "with -campaign, redraw the view until the campaign completes, is cancelled, or every estimator meets the target margin")
	)
	fs.BoolVar(&in.requireProv, "require-prov", false, "fail unless every record carries a provenance mechanism verdict")
	fs.BoolVar(&in.quiet, "quiet", false, "suppress the summary tables; print verification results only")
	fs.StringVar(&in.workload, "workload", "", "restrict the mechanism, split and convergence tables to one workload")
	fs.StringVar(&in.jsonOut, "json", "", "also write the masking-mechanism rows as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, r := range []struct{ path, kind string }{{*against, serve.KindInjection}, {*againstBeam, serve.KindBeam}} {
		if r.path == "" {
			continue
		}
		raw, err := os.ReadFile(r.path)
		if err != nil {
			return err
		}
		c, err := resultCheck(r.kind, raw, r.path)
		if err != nil {
			return err
		}
		in.checks = append(in.checks, c)
	}

	switch {
	case *campaignID != "" && *remote == "":
		return fmt.Errorf("-campaign needs -remote")
	case *follow && *campaignID == "":
		return fmt.Errorf("-follow needs -remote and -campaign")
	case *remote != "" && fs.NArg() > 0:
		return fmt.Errorf("-remote reads the coordinator's trace, not trace files")
	case *remote != "" && *campaignID == "":
		return list(&serve.Client{Base: *remote}, stdout)
	case *remote != "":
		return in.remote(&serve.Client{Base: *remote}, *campaignID, *follow, pollEvery, stdout)
	case fs.NArg() == 0:
		return fmt.Errorf("usage: tracestat [-against result.json | -against-beam result.json] trace.jsonl...\n" +
			"       tracestat -remote http://host:8440 [-campaign ID [-follow]]")
	}

	var readers []io.Reader
	for _, path := range fs.Args() {
		if path == "-" {
			readers = append(readers, os.Stdin)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		readers = append(readers, f)
	}
	sum, err := obs.ReadSummary(io.MultiReader(readers...))
	if err != nil {
		return err
	}
	return in.inspect(sum, stdout)
}

// inspect prints every table the summary supports, writes the -json
// export, and runs the provenance check and the Result checks.
func (in *inspection) inspect(sum *obs.Summary, out io.Writer) error {
	if in.workload != "" && !hasWorkload(sum, in.workload) {
		return fmt.Errorf("workload %q is not in the trace", in.workload)
	}
	rows := mechanismRows(sum, in.workload)
	if !in.quiet {
		printSummary(out, sum)
		printTables(out, rows)
		printSplit(out, sum, in.workload)
		printConvergence(out, sum, in.workload)
	}
	if in.jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(in.jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	failures := verifyProvenance(out, sum, in.requireProv)
	for _, c := range in.checks {
		failures += c(sum, out)
	}
	if failures > 0 {
		return fmt.Errorf("%d verification failure(s)", failures)
	}
	return nil
}

func hasWorkload(s *obs.Summary, name string) bool {
	for _, k := range s.ByKind {
		if _, ok := k.Workloads[name]; ok {
			return true
		}
	}
	return false
}

// resultCheck decodes a campaign Result of the given kind and returns the
// check of a trace against it; label names the Result in the verdicts.
func resultCheck(kind string, raw []byte, label string) (check, error) {
	switch kind {
	case serve.KindInjection:
		var res gefin.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		return func(s *obs.Summary, out io.Writer) int { return verifyInjection(out, s, &res, label) }, nil
	case serve.KindBeam:
		var res beam.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		return func(s *obs.Summary, out io.Writer) int { return verifyBeam(out, s, &res, label) }, nil
	}
	return nil, fmt.Errorf("%s: unknown campaign kind %q", label, kind)
}

// verifyProvenance cross-checks the mechanism verdicts against the outcome
// classes: for every workload x component carrying provenance, the verdicts
// must cover every record (all-or-none per component), each verdict must be
// consistent with its record's class, and the mechanism tallies must
// partition the class counts exactly — the masked mechanisms sum to the
// Masked count, propagated-sdc equals the SDC count, and the trap/timeout
// routes together equal the two crash counts. With require set, a trace
// without provenance is itself a failure. Returns the mismatch count.
func verifyProvenance(out io.Writer, s *obs.Summary, require bool) int {
	failures, withProv := 0, 0
	for _, kind := range []string{obs.KindInjection, obs.KindStrike} {
		for name, w := range s.Kind(kind).Workloads {
			for comp, c := range w.Components {
				if c.MechRecords == 0 {
					if require {
						fmt.Fprintf(out, "MISMATCH %s/%s: no record carries a mechanism verdict\n", name, comp)
						failures++
					}
					continue
				}
				withProv++
				if c.PredBad > 0 {
					fmt.Fprintf(out, "MISMATCH %s/%s: %d predicted records are not masked with a masking mechanism\n",
						name, comp, c.PredBad)
					failures++
				}
				if c.MechRecords != c.Records {
					if c.Predicted > 0 && c.MechRecords == c.Predicted {
						// Pruned campaign without -prov: only the pre-filter's
						// predicted records carry verdicts. Those must all be
						// masking and bounded by the masked class count; the
						// full partition check needs simulated provenance too.
						predMasked := 0
						for _, n := range c.PredMechanisms {
							predMasked += n
						}
						if predMasked > c.Counts[fault.ClassMasked] {
							fmt.Fprintf(out, "MISMATCH %s/%s: %d predicted-masked records exceed the %d masked outcomes\n",
								name, comp, predMasked, c.Counts[fault.ClassMasked])
							failures++
						}
						continue
					}
					fmt.Fprintf(out, "MISMATCH %s/%s: %d of %d records carry a mechanism verdict\n",
						name, comp, c.MechRecords, c.Records)
					failures++
				}
				if c.MechMismatch > 0 {
					fmt.Fprintf(out, "MISMATCH %s/%s: %d mechanism verdicts contradict their outcome class\n",
						name, comp, c.MechMismatch)
					failures++
				}
				masked := 0
				for _, m := range fault.Mechanisms() {
					if m.Masking() {
						masked += c.Mechanisms[m]
					}
				}
				crash := c.Mechanisms[fault.MechPropagatedTrap] + c.Mechanisms[fault.MechPropagatedTimeout]
				partition := func(label string, got, want int) {
					if got != want {
						fmt.Fprintf(out, "MISMATCH %s/%s: %s sum to %d, classes count %d\n", name, comp, label, got, want)
						failures++
					}
				}
				partition("masked mechanisms", masked, c.Counts[fault.ClassMasked])
				partition("propagated-sdc", c.Mechanisms[fault.MechPropagatedSDC], c.Counts[fault.ClassSDC])
				partition("crash mechanisms", crash, c.Counts[fault.ClassAppCrash]+c.Counts[fault.ClassSysCrash])
			}
		}
	}
	if require && withProv == 0 && failures == 0 {
		fmt.Fprintln(out, "MISMATCH: trace carries no provenance at all")
		failures++
	}
	if failures == 0 && withProv > 0 {
		fmt.Fprintf(out, "OK: mechanism verdicts partition the outcome classes (%d workload x component groups)\n", withProv)
	}
	return failures
}

// verifyInjection cross-checks the trace against a gefin Result: every
// workload x component class count must match exactly, and the trace
// must contain exactly N records per component.
func verifyInjection(out io.Writer, s *obs.Summary, res *gefin.Result, label string) int {
	failures := 0
	pred, sim := 0, 0
	for _, w := range res.Workloads {
		for _, cr := range w.Components {
			c := s.Component(obs.KindInjection, w.Workload, cr.Comp)
			pred += c.Predicted
			sim += c.Records - c.Predicted
			if c.Records != cr.N {
				fmt.Fprintf(out, "MISMATCH %s/%s: trace has %d records, result expects %d\n",
					w.Workload, cr.Comp, c.Records, cr.N)
				failures++
			}
			for _, cls := range fault.Classes() {
				if c.Counts[cls] != cr.Counts[cls] {
					fmt.Fprintf(out, "MISMATCH %s/%s/%s: trace counts %d, result counts %d\n",
						w.Workload, cr.Comp, cls, c.Counts[cls], cr.Counts[cls])
					failures++
				}
			}
		}
	}
	// A pruned Result carries its predicted/simulated split outside the
	// Workloads; the trace's predicted records must reproduce it exactly.
	// (Shadow-verified campaigns simulate every slot, so the trace carries
	// no predicted records there — nothing to cross-check.)
	if ps := res.Prune; ps != nil && ps.Verified == 0 {
		if pred != ps.Predicted || sim != ps.Simulated {
			fmt.Fprintf(out, "MISMATCH prune split: trace has %d predicted / %d simulated records, result summarises %d / %d\n",
				pred, sim, ps.Predicted, ps.Simulated)
			failures++
		} else if pred > 0 {
			fmt.Fprintf(out, "OK: trace predicted/simulated split matches the result's prune summary (%d / %d)\n", pred, sim)
		}
	}
	if failures == 0 {
		fmt.Fprintf(out, "OK: trace agrees with injection result %s (%d workloads)\n", label, len(res.Workloads))
	}
	return failures
}

// verifyBeam cross-checks the trace against a beam Result: strike record
// counts must equal SimulatedStrikes, masked counts must equal
// MaskedStrikes, and the weighted per-class event sums recomputed from
// the trace must be bit-identical to ModeledEvents.
func verifyBeam(out io.Writer, s *obs.Summary, res *beam.Result, label string) int {
	failures := 0
	for _, w := range res.Workloads {
		records, masked := 0, 0
		for _, comp := range fault.Components() {
			c := s.Component(obs.KindStrike, w.Workload, comp)
			records += c.Records
			masked += c.Counts[fault.ClassMasked]
		}
		if records != w.SimulatedStrikes {
			fmt.Fprintf(out, "MISMATCH %s: trace has %d strikes, result simulated %d\n",
				w.Workload, records, w.SimulatedStrikes)
			failures++
		}
		if masked != w.MaskedStrikes {
			fmt.Fprintf(out, "MISMATCH %s: trace has %d masked strikes, result counted %d\n",
				w.Workload, masked, w.MaskedStrikes)
			failures++
		}
		modeled := s.ModeledEvents(w.Workload)
		for _, cls := range fault.Classes() {
			if modeled[cls] != w.ModeledEvents[cls] {
				fmt.Fprintf(out, "MISMATCH %s/%s: trace models %.17g events, result %.17g\n",
					w.Workload, cls, modeled[cls], w.ModeledEvents[cls])
				failures++
			}
		}
	}
	if failures == 0 {
		fmt.Fprintf(out, "OK: trace agrees with beam result %s (%d workloads)\n", label, len(res.Workloads))
	}
	return failures
}
