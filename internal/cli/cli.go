// Package cli is the front end the campaign commands share: one
// registration of the campaign flags gefin, beamsim and fitcompare have
// in common, one resolution of -workloads and -scale, and one remote
// submit-and-wait against a campaign service.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"armsefi/internal/bench"
	"armsefi/internal/serve"
	"armsefi/internal/soc"
)

// Flags holds the shared campaign flags after parsing.
type Flags struct {
	Workloads, Scale string
	Seed             int64
	Workers          int
	JSON             string
	Quiet            bool
	Trace            string
	Prov             bool
	MetricsAddr      string
	CheckpointEvery  uint64
	MaxCheckpoints   int
	Verify           bool

	// Registered only for the commands that can also submit to a
	// campaign service, stop early and profile (gefin, beamsim).
	Remote                   string
	TargetMargin, Confidence float64
	CPUProfile, MemProfile   string
}

// Register defines the shared campaign flags on fs; withRemote adds
// -remote, -target-margin, -confidence, -cpuprofile and -memprofile.
func Register(fs *flag.FlagSet, withRemote bool) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Workloads, "workloads", "", "comma-separated workload names (default: all 13)")
	fs.StringVar(&f.Scale, "scale", "tiny", "input scale (tiny|small|paper)")
	fs.Int64Var(&f.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&f.Workers, "workers", 0, "parallel workers; 0 = GOMAXPROCS, 1 = sequential (same result either way)")
	fs.StringVar(&f.JSON, "json", "", "also write the raw campaign result as JSON to this file")
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress progress output")
	fs.StringVar(&f.Trace, "trace", "", "stream a per-injection and per-strike JSONL lifecycle trace to this file")
	fs.BoolVar(&f.Prov, "prov", false,
		"attach the propagation-provenance probe: trace records carry a mechanism verdict and lifecycle event chain (results are byte-identical either way)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live metrics and pprof on HOST:PORT")
	fs.Uint64Var(&f.CheckpointEvery, "checkpoint-every", soc.DefaultCheckpointEvery,
		"golden-run checkpoint-ladder rung spacing in cycles; the ladder fast-forwards injection runs and beam steady-state and reboot runs; 0 disables it (results are bit-identical either way)")
	fs.IntVar(&f.MaxCheckpoints, "max-checkpoints", soc.DefaultMaxCheckpoints,
		"cap on checkpoint-ladder rungs per workload (spacing grows to fit)")
	fs.BoolVar(&f.Verify, "verify", false,
		"cross-validate the shortcuts (no speedup; turns none on): simulate every injection with the provenance probe and check each -prune prediction and -dedup materialization against it (failing the campaign on any disagreement), execute every strike and injection while computing the same -target-margin cuts without applying them, and cross-check every incremental ladder convergence verdict against the exact full-image comparison")
	if withRemote {
		fs.StringVar(&f.Remote, "remote", "",
			"submit the campaign to a campaignd coordinator at this URL instead of running locally, wait for completion, and report its results")
		fs.Float64Var(&f.TargetMargin, "target-margin", 0,
			"sequential early stopping: cut each component's injection plan or strike chain at the first check boundary where every class estimate reaches this confidence-interval half-width (0 disables; the stopped Result is byte-identical to the same prefix of a full run, and surviving strikes are re-weighted so FIT rates stay unbiased)")
		fs.Float64Var(&f.Confidence, "confidence", 0,
			"confidence level for -target-margin and reported margins (0 = 0.99, the paper's level)")
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the campaign to this file")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile at campaign end to this file")
	}
	return f
}

// Resolve parses -workloads and -scale.
func (f *Flags) Resolve() ([]bench.Spec, bench.Scale, error) {
	specs, err := bench.Select(f.Workloads)
	if err != nil {
		return nil, 0, err
	}
	scale, err := bench.ParseScale(f.Scale)
	return specs, scale, err
}

// Names lists the workloads' names, as a service submission takes them.
func Names(specs []bench.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// WriteJSON writes v as indented JSON to path; the empty path writes
// nothing.
func WriteJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Remote submits a campaign to the coordinator at base, waits for it to
// complete (printing its progress to stderr unless quiet), and fetches
// the assembled Result with fetch — (*serve.Client).InjectionResults or
// BeamResults. By the service's determinism contract its Workloads are
// byte-identical to a local run of the same Config and seed.
func Remote[R any](base string, req serve.SubmitRequest, quiet bool, stderr io.Writer,
	fetch func(*serve.Client, string) (R, error)) (R, error) {
	var zero R
	client := &serve.Client{Base: base}
	id, err := client.Submit(req)
	if err != nil {
		return zero, err
	}
	var progress func(*serve.CampaignStatus)
	if !quiet {
		fmt.Fprintf(stderr, "submitted campaign %s to %s\n", id, base)
		progress = func(st *serve.CampaignStatus) {
			fmt.Fprintf(stderr, "\r%7d/%d items | %d/%d shards | %s     ",
				st.ItemsDone, st.ItemsTotal, st.ShardsDone, st.ShardsTotal, st.State)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	st, err := client.Await(ctx, id, 0, progress)
	if !quiet {
		fmt.Fprintln(stderr)
	}
	switch {
	case ctx.Err() != nil:
		return zero, fmt.Errorf("interrupted waiting for campaign %s (it keeps running; re-check with -remote later)", id)
	case err != nil:
		return zero, err
	case st.State == serve.StateCancelled:
		return zero, fmt.Errorf("campaign %s was cancelled", id)
	}
	return fetch(client, id)
}
