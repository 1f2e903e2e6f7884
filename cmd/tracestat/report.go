package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
	"armsefi/internal/report"
)

// printSummary renders the per-kind class tables, the worker distribution,
// and the wall-time quantiles of the simulated experiments.
func printSummary(out io.Writer, s *obs.Summary) {
	fmt.Fprintf(out, "trace: %d records\n", s.Records)
	for _, kind := range []string{obs.KindInjection, obs.KindStrike} {
		k, ok := s.ByKind[kind]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "\n%s records: %d\n", kind, k.Records)
		fmt.Fprintf(out, "  %-12s %-10s %8s", "workload", "component", "records")
		for _, cls := range fault.Classes() {
			fmt.Fprintf(out, " %10s", cls)
		}
		fmt.Fprintln(out)
		for _, name := range sortedKeys(k.Workloads) {
			w := k.Workloads[name]
			for _, comp := range sortedKeys(w.Components) {
				c := w.Components[comp]
				fmt.Fprintf(out, "  %-12s %-10s %8d", name, comp, c.Records)
				for _, cls := range fault.Classes() {
					fmt.Fprintf(out, " %10d", c.Counts[cls])
				}
				fmt.Fprintln(out)
			}
		}
	}

	fmt.Fprintf(out, "\nper-worker records:")
	for _, w := range sortedKeys(s.Workers) {
		fmt.Fprintf(out, " w%d=%d", w, s.Workers[w])
	}
	fmt.Fprintf(out, "\nexperiment wall time: p50=%v p90=%v p99=%v max=%v\n\n",
		time.Duration(s.WallQuantile(0.50)), time.Duration(s.WallQuantile(0.90)),
		time.Duration(s.WallQuantile(0.99)), time.Duration(s.WallQuantile(1.0)))
}

// componentReport is one workload x component row of the masking-mechanism
// tables and of the -json export.
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

// mechanismRows collects every workload x component whose records carry a
// mechanism verdict, restricted to one workload when only is set, sorted
// by workload and component.
func mechanismRows(sum *obs.Summary, only string) []componentReport {
	rows := []componentReport{}
	for _, kind := range []string{obs.KindInjection, obs.KindStrike} {
		for name, w := range sum.Kind(kind).Workloads {
			if only != "" && name != only {
				continue
			}
			for comp, c := range w.Components {
				if c.MechRecords > 0 {
					rows = append(rows, componentReport{
						Workload: name, Comp: comp, Records: c.MechRecords, Mechanisms: c.Mechanisms,
						Predicted: c.Predicted, PredMechanisms: c.PredMechanisms, Deduped: c.Deduped,
					})
				}
			}
		}
	}
	slices.SortFunc(rows, func(a, b componentReport) int {
		return cmp.Or(cmp.Compare(a.Workload, b.Workload), cmp.Compare(a.Comp, b.Comp))
	})
	return rows
}

// printTables renders one masking-mechanism table per workload: counts and
// percentages per component, with a workload-wide total row.
func printTables(w io.Writer, rows []componentReport) {
	mechs := fault.Mechanisms()
	for len(rows) > 0 {
		name := rows[0].Workload // rows come sorted by workload
		fmt.Fprintf(w, "Masking mechanisms — %s\n", name)
		fmt.Fprintf(w, "  %-10s %8s", "component", "records")
		mechHeader(w, mechs)
		total := componentReport{Mechanisms: make(map[fault.Mechanism]int)}
		for ; len(rows) > 0 && rows[0].Workload == name; rows = rows[1:] {
			r := rows[0]
			fmt.Fprintf(w, "  %-10s %8d", r.Comp, r.Records)
			mechCells(w, mechs, r.Mechanisms, r.Records)
			total.Records += r.Records
			for _, m := range mechs {
				total.Mechanisms[m] += r.Mechanisms[m]
			}
		}
		fmt.Fprintf(w, "  %-10s %8d", "total", total.Records)
		mechCells(w, mechs, total.Mechanisms, total.Records)
		fmt.Fprintln(w)
	}
}

// printSplit renders the predicted/deduped/simulated decomposition of an
// optimised injection campaign: per component, how many planned
// injections the ACE pre-filter resolved without simulation (split by
// predicted mechanism), how many materialized from an equivalence-class
// representative, and how many actually ran. Silent for plain traces.
func printSplit(out io.Writer, sum *obs.Summary, only string) {
	k := sum.Kind(obs.KindInjection)
	for _, name := range sortedKeys(k.Workloads) {
		w := k.Workloads[name]
		optimised := false
		for _, c := range w.Components {
			optimised = optimised || c.Predicted > 0 || c.Deduped > 0
		}
		if !optimised || (only != "" && name != only) {
			continue
		}
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
		fmt.Fprintf(out, "Campaign split: predicted vs deduped vs simulated — %s\n", name)
		fmt.Fprintf(out, "  %-10s %9s %9s %9s %10s", "component", "predicted", "deduped", "simulated", "sim frac")
		mechHeader(out, mechs)
		var tPred, tDedup, tSim int
		tMech := make(map[fault.Mechanism]int)
		for _, comp := range sortedKeys(w.Components) {
			c := w.Components[comp]
			sim := c.Records - c.Predicted - c.Deduped
			fmt.Fprintf(out, "  %-10s %9d %9d %9d %9.2f%%", comp, c.Predicted, c.Deduped, sim, pct(sim, c.Records))
			mechCells(out, mechs, c.PredMechanisms, c.Records)
			tPred += c.Predicted
			tDedup += c.Deduped
			tSim += sim
			for _, m := range mechs {
				tMech[m] += c.PredMechanisms[m]
			}
		}
		total := tPred + tDedup + tSim
		fmt.Fprintf(out, "  %-10s %9d %9d %9d %9.2f%%", "total", tPred, tDedup, tSim, pct(tSim, total))
		mechCells(out, mechs, tMech, total)
		fmt.Fprintln(out)
	}
}

// printConvergence renders the final streaming-estimator states of a
// trace that carries convergence records (campaigns run with
// -target-margin, or any observed campaign's streaming estimates):
// every estimator's achieved margin, plus the faults saved by each
// component the sequential rule stopped early.
func printConvergence(w io.Writer, sum *obs.Summary, only string) {
	snaps := sum.LastConv()
	if only != "" {
		snaps = slices.DeleteFunc(snaps, func(s obs.ConvSnapshot) bool { return s.Workload != only })
	}
	if len(snaps) == 0 {
		return
	}
	judged := 0.0
	if slices.ContainsFunc(snaps, func(s obs.ConvSnapshot) bool { return s.Met || s.Stopped }) {
		judged = 1 // render the Met column: the campaign had a rule
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
}

// mechHeader ends a table's header line with one column per mechanism.
func mechHeader(w io.Writer, mechs []fault.Mechanism) {
	for _, m := range mechs {
		fmt.Fprintf(w, " %22s", m)
	}
	fmt.Fprintln(w)
}

// mechCells ends a table line with each mechanism's count and its share
// of total.
func mechCells(w io.Writer, mechs []fault.Mechanism, counts map[fault.Mechanism]int, total int) {
	for _, m := range mechs {
		fmt.Fprintf(w, " %12d (%6.2f%%)", counts[m], pct(counts[m], total))
	}
	fmt.Fprintln(w)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
