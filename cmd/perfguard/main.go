// Command perfguard gates CI on simulation-kernel performance. It parses
// `go test -bench` output and checks it against the committed baseline
// record (BENCH_kernel.json): ratio guards compare two benchmarks from
// the SAME run — e.g. the checkpointed campaign arm against the plain
// arm — so the check is independent of the host the CI job happens to
// land on, and allocation guards pin allocs/op at exactly zero for the
// steady-state cycle loop. A ratio more than -tolerance below the
// recorded value fails the build. Metric floors additionally pin custom
// b.ReportMetric columns (e.g. the pruned campaign's predicted-frac in
// BENCH_prune.json) above absolute minimums.
//
// Usage:
//
//	go test -bench ... -benchmem | perfguard -baseline BENCH_kernel.json
//	perfguard -baseline BENCH_kernel.json -input bench.txt [-tolerance 0.10]
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// RatioGuard asserts fast is at least Recorded*(1-tolerance) times
// faster than slow, measured within one run.
type RatioGuard struct {
	Name string `json:"name"`
	// Fast and Slow name the two benchmarks, without the -GOMAXPROCS
	// suffix (e.g. "BenchmarkCampaignCheckpointed/checkpointed").
	Fast string `json:"fast"`
	Slow string `json:"slow"`
	// Recorded is the ns(slow)/ns(fast) ratio measured when the baseline
	// was committed.
	Recorded float64 `json:"recorded"`
}

// MetricFloor asserts a custom benchmark metric (a b.ReportMetric
// column, e.g. "predicted-frac") stays at or above an absolute floor.
type MetricFloor struct {
	Name string `json:"name"`
	// Bench names the benchmark carrying the metric, without the
	// -GOMAXPROCS suffix.
	Bench string `json:"bench"`
	// Metric is the unit column to check (everything after the value).
	Metric string `json:"metric"`
	// Floor is the absolute minimum — no tolerance is applied, so record
	// floors with headroom, not measured values.
	Floor float64 `json:"floor"`
}

// Guards is the machine-checked part of the baseline record.
type Guards struct {
	Ratios []RatioGuard `json:"ratios"`
	// ZeroAllocs lists benchmarks whose allocs/op must be exactly zero
	// (requires -benchmem or b.ReportAllocs in the benchmark).
	ZeroAllocs []string `json:"zero_allocs"`
	// MetricFloors pin custom reported metrics above absolute floors.
	MetricFloors []MetricFloor `json:"metric_floors,omitempty"`
}

// Baseline is the subset of BENCH_kernel.json perfguard reads; the file
// may carry additional documentation fields.
type Baseline struct {
	Guards Guards `json:"guards"`
}

// measurement is one parsed benchmark result line.
type measurement struct {
	nsPerOp  float64
	allocs   float64
	hasAlloc bool
	// metrics holds every other value/unit column (b.ReportMetric output);
	// repeated lines keep the minimum, so floors check the worst run.
	metrics map[string]float64
}

// parseBench extracts ns/op and allocs/op per benchmark name from go
// test -bench output. Repeated lines (-count > 1) keep the fastest
// ns/op and the worst allocs/op.
func parseBench(r io.Reader) (map[string]measurement, error) {
	out := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so names are host-independent.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m, seen := out[name]
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if !seen || v < m.nsPerOp {
					m.nsPerOp = v
				}
			case "allocs/op":
				if !m.hasAlloc || v > m.allocs {
					m.allocs = v
				}
				m.hasAlloc = true
			case "B/op", "MB/s":
				// standard columns no guard reads
			default:
				if m.metrics == nil {
					m.metrics = make(map[string]float64)
				}
				if prev, ok := m.metrics[fields[i+1]]; !ok || v < prev {
					m.metrics[fields[i+1]] = v
				}
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

// run checks benchmark output (the -input file, or stdin) against the
// baseline's guards, printing one verdict line per guard to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfguard", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_kernel.json", "committed baseline record with the guard definitions")
		inputPath    = fs.String("input", "", "benchmark output file (default: stdin)")
		tolerance    = fs.Float64("tolerance", 0.10, "allowed fractional regression below each recorded ratio")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", *baselinePath, err)
	}
	if len(base.Guards.Ratios) == 0 && len(base.Guards.ZeroAllocs) == 0 && len(base.Guards.MetricFloors) == 0 {
		return fmt.Errorf("%s defines no guards", *baselinePath)
	}

	in := stdin
	if *inputPath != "" {
		f, err := os.Open(*inputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}

	failed := 0
	for _, g := range base.Guards.Ratios {
		fast, okF := results[g.Fast]
		slow, okS := results[g.Slow]
		if !okF || !okS {
			fmt.Fprintf(stdout, "FAIL %s: missing benchmark results (%s and/or %s not in input)\n", g.Name, g.Fast, g.Slow)
			failed++
			continue
		}
		ratio := slow.nsPerOp / fast.nsPerOp
		floor := g.Recorded * (1 - *tolerance)
		verdict := "ok  "
		if ratio < floor {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%s %s: %.2fx (recorded %.2fx, floor %.2fx)\n", verdict, g.Name, ratio, g.Recorded, floor)
	}
	for _, g := range base.Guards.MetricFloors {
		m, ok := results[g.Bench]
		v, has := m.metrics[g.Metric]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "FAIL %s: benchmark %s not in input\n", g.Name, g.Bench)
			failed++
		case !has:
			fmt.Fprintf(stdout, "FAIL %s: %s reports no %q metric\n", g.Name, g.Bench, g.Metric)
			failed++
		case v < g.Floor:
			fmt.Fprintf(stdout, "FAIL %s: %s %s = %.4g, floor %.4g\n", g.Name, g.Bench, g.Metric, v, g.Floor)
			failed++
		default:
			fmt.Fprintf(stdout, "ok   %s: %s %s = %.4g (floor %.4g)\n", g.Name, g.Bench, g.Metric, v, g.Floor)
		}
	}
	for _, name := range base.Guards.ZeroAllocs {
		m, ok := results[name]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "FAIL zero-alloc %s: not in input\n", name)
			failed++
		case !m.hasAlloc:
			fmt.Fprintf(stdout, "FAIL zero-alloc %s: no allocs/op column (run with -benchmem or ReportAllocs)\n", name)
			failed++
		case m.allocs != 0:
			fmt.Fprintf(stdout, "FAIL zero-alloc %s: %.0f allocs/op, want 0\n", name, m.allocs)
			failed++
		default:
			fmt.Fprintf(stdout, "ok   zero-alloc %s: 0 allocs/op\n", name)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d perf guard(s) failed", failed)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfguard:", err)
		os.Exit(1)
	}
}
