// Command provreport aggregates a provenance-enabled JSONL lifecycle
// trace (gefin/beamsim -trace with -prov) into paper-style per-workload
// masking-mechanism tables: for each workload x component, how many
// injected bits were never read, overwritten before use, evicted clean,
// read but logically masked, left latent, or propagated to an SDC, a
// trap, or a timeout — the "why was this fault masked?" decomposition the
// paper's Section V discusses qualitatively.
//
// For convergence-observed campaigns (gefin/beamsim -target-margin, or
// any campaign streaming estimates) it also prints the final streaming
// estimators — achieved confidence-interval margins per workload x
// component x class — and the faults saved by sequential early
// stopping.
//
// For pruned campaigns (gefin -prune) it additionally prints a
// predicted-vs-simulated split table: per component, how many planned
// injections the ACE pre-filter resolved without simulation, decomposed
// by predicted mechanism, versus how many actually ran.
//
// Usage:
//
//	provreport trace.jsonl
//	provreport -workload crc32 trace.jsonl
//	provreport -json report.json trace.jsonl
//
// The command exits nonzero when the trace carries no provenance fields
// at all (e.g. the campaign ran without -prov).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
	"armsefi/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "provreport:", err)
		os.Exit(1)
	}
}

// componentReport is one workload x component row of the JSON export.
type componentReport struct {
	Workload   string                  `json:"workload"`
	Comp       fault.Component         `json:"comp"`
	Records    int                     `json:"records"`
	Mechanisms map[fault.Mechanism]int `json:"mechanisms"`
	// Predicted counts the records the ACE pre-filter resolved without
	// simulation (pruned campaigns only); PredMechanisms splits them by
	// the predicted masking mechanism.
	Predicted      int                     `json:"predicted,omitempty"`
	PredMechanisms map[fault.Mechanism]int `json:"pred_mechanisms,omitempty"`
	// Deduped counts the records materialized from an equivalence-class
	// representative without simulation (deduplicated campaigns only).
	Deduped int `json:"deduped,omitempty"`
}

// run is the command: args without the program name; the report goes to
// stdout and flag diagnostics to stderr. A path of "-" reads the trace
// from standard input.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("provreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "restrict the report to one workload")
		jsonOut  = fs.String("json", "", "also write the aggregated report as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: provreport [-workload name] [-json out.json] trace.jsonl")
	}

	var in io.Reader
	if path := fs.Arg(0); path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sum, err := obs.ReadSummary(in)
	if err != nil {
		return err
	}

	var rows []componentReport
	for _, kind := range []string{obs.KindInjection, obs.KindStrike} {
		k, ok := sum.ByKind[kind]
		if !ok {
			continue
		}
		for name, w := range k.Workloads {
			if *workload != "" && name != *workload {
				continue
			}
			for comp, c := range w.Components {
				if c.MechRecords == 0 {
					continue
				}
				row := componentReport{
					Workload:   name,
					Comp:       comp,
					Records:    c.MechRecords,
					Mechanisms: c.Mechanisms,
				}
				if c.Predicted > 0 {
					row.Predicted = c.Predicted
					row.PredMechanisms = c.PredMechanisms
				}
				if c.Deduped > 0 {
					row.Deduped = c.Deduped
				}
				rows = append(rows, row)
			}
		}
	}
	if len(rows) == 0 {
		// A convergence-only trace (campaign run with -target-margin but
		// without -prov) still has margins worth reporting.
		if printConvergence(stdout, sum, *workload) {
			return nil
		}
		return fmt.Errorf("trace carries no provenance fields (was the campaign run with -prov?)")
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Comp < rows[j].Comp
	})

	printTables(stdout, rows)
	printSplit(stdout, sum, *workload)
	printConvergence(stdout, sum, *workload)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printTables renders one masking-mechanism table per workload: counts and
// percentages per component, with a workload-wide total row.
func printTables(w io.Writer, rows []componentReport) {
	mechs := fault.Mechanisms()
	byWorkload := make(map[string][]componentReport)
	var names []string
	for _, r := range rows {
		if _, ok := byWorkload[r.Workload]; !ok {
			names = append(names, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "Masking mechanisms — %s\n", name)
		fmt.Fprintf(w, "  %-10s %8s", "component", "records")
		for _, m := range mechs {
			fmt.Fprintf(w, " %22s", m)
		}
		fmt.Fprintln(w)
		total := componentReport{Mechanisms: make(map[fault.Mechanism]int)}
		for _, r := range byWorkload[name] {
			fmt.Fprintf(w, "  %-10s %8d", r.Comp, r.Records)
			for _, m := range mechs {
				fmt.Fprintf(w, " %12d (%6.2f%%)", r.Mechanisms[m], pct(r.Mechanisms[m], r.Records))
			}
			fmt.Fprintln(w)
			total.Records += r.Records
			for _, m := range mechs {
				total.Mechanisms[m] += r.Mechanisms[m]
			}
		}
		fmt.Fprintf(w, "  %-10s %8d", "total", total.Records)
		for _, m := range mechs {
			fmt.Fprintf(w, " %12d (%6.2f%%)", total.Mechanisms[m], pct(total.Mechanisms[m], total.Records))
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}
}

// printSplit renders the predicted/deduped/simulated decomposition of an
// optimised injection campaign: per component, how many planned
// injections the ACE pre-filter resolved without simulation (split by
// predicted mechanism), how many materialized from an equivalence-class
// representative, and how many actually ran. Silent for plain traces.
func printSplit(out io.Writer, sum *obs.Summary, only string) {
	k, ok := sum.ByKind[obs.KindInjection]
	if !ok {
		return
	}
	var names []string
	for name, w := range k.Workloads {
		if only != "" && name != only {
			continue
		}
		for _, c := range w.Components {
			if c.Predicted > 0 || c.Deduped > 0 {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		w := k.Workloads[name]
		// Columns: only the mechanisms the pre-filter actually predicted.
		var mechs []fault.Mechanism
		for _, m := range fault.Mechanisms() {
			for _, c := range w.Components {
				if c.PredMechanisms[m] > 0 {
					mechs = append(mechs, m)
					break
				}
			}
		}
		comps := make([]fault.Component, 0, len(w.Components))
		for comp := range w.Components {
			comps = append(comps, comp)
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
		fmt.Fprintf(out, "Campaign split: predicted vs deduped vs simulated — %s\n", name)
		fmt.Fprintf(out, "  %-10s %9s %9s %9s %10s", "component", "predicted", "deduped", "simulated", "sim frac")
		for _, m := range mechs {
			fmt.Fprintf(out, " %22s", m)
		}
		fmt.Fprintln(out)
		var tPred, tDedup, tSim int
		tMech := make(map[fault.Mechanism]int)
		for _, comp := range comps {
			c := w.Components[comp]
			sim := c.Records - c.Predicted - c.Deduped
			fmt.Fprintf(out, "  %-10s %9d %9d %9d %9.2f%%", comp, c.Predicted, c.Deduped, sim, pct(sim, c.Records))
			for _, m := range mechs {
				fmt.Fprintf(out, " %12d (%6.2f%%)", c.PredMechanisms[m], pct(c.PredMechanisms[m], c.Records))
			}
			fmt.Fprintln(out)
			tPred += c.Predicted
			tDedup += c.Deduped
			tSim += sim
			for _, m := range mechs {
				tMech[m] += c.PredMechanisms[m]
			}
		}
		total := tPred + tDedup + tSim
		fmt.Fprintf(out, "  %-10s %9d %9d %9d %9.2f%%", "total", tPred, tDedup, tSim, pct(tSim, total))
		for _, m := range mechs {
			fmt.Fprintf(out, " %12d (%6.2f%%)", tMech[m], pct(tMech[m], total))
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out)
	}
}

// printConvergence renders the final streaming-estimator states of a
// trace that carries convergence records (campaigns run with
// -target-margin, or any observed campaign's streaming estimates):
// every estimator's achieved margin, plus the faults saved by each
// component the sequential rule stopped early. It reports whether it
// printed anything.
func printConvergence(w io.Writer, sum *obs.Summary, only string) bool {
	snaps := sum.LastConv()
	if only != "" {
		filtered := snaps[:0]
		for _, s := range snaps {
			if s.Workload == only {
				filtered = append(filtered, s)
			}
		}
		snaps = filtered
	}
	if len(snaps) == 0 {
		return false
	}
	judged := 0.0
	for _, s := range snaps {
		if s.Met || s.Stopped {
			judged = 1 // render the Met column: the campaign had a rule
			break
		}
	}
	fmt.Fprintln(w, report.ConvergenceTable("Final convergence estimators (achieved margins)", snaps, judged))
	// Faults saved by sequential stopping: the planned-vs-committed gap of
	// each stopped component, counted once via its Masked-class estimator.
	saved, planned := 0, 0
	for _, s := range snaps {
		if s.Class != fault.ClassMasked {
			continue
		}
		planned += s.Planned
		if s.Stopped {
			saved += s.Planned - s.N
		}
	}
	if saved > 0 {
		fmt.Fprintf(w, "sequential early stopping saved %d of %d planned faults (%.1f%%)\n\n", saved, planned, pct(saved, planned))
	}
	return true
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
