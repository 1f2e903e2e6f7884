// Command campaignd is the campaign service daemon. In coordinator mode
// (the default) it serves the campaign HTTP API over a durable on-disk
// store, schedules shard leases, merges worker telemetry into
// per-campaign fleet traces, serves the live fleet dashboard, and
// optionally runs local worker loops against its own coordinator. In
// worker mode (-coordinator URL) it claims shard leases from a remote
// campaignd, executes them, and federates its trace records and health
// counters back to the coordinator, so a campaign fans out across
// machines while the coordinator keeps one correlated view of the fleet.
//
// Usage:
//
//	campaignd -store DIR [-addr :8440] [-workers N] [-max-active 2]
//	          [-lease-ttl 30s] [-straggler-after 90s] [-stalled-after 15s]
//	          [-trace trace.jsonl] [-metrics-addr :9100]
//	          [-telemetry-every 1s] [-target-margin 0.04] [-confidence 0.99]
//	campaignd -coordinator http://host:8440 [-node NAME] [-workers N]
//	          [-trace trace.jsonl] [-metrics-addr :9100]
//	          [-telemetry-every 1s]
//
// The coordinator serves the fleet dashboard at /fleet, its JSON feed at
// /api/v1/fleet, each campaign's merged fleet trace at
// /api/v1/campaigns/{id}/trace, and its merged convergence view at
// /api/v1/campaigns/{id}/convergence (watch it live with convwatch).
// -telemetry-every 0 disables federation.
//
// SIGINT/SIGTERM drain gracefully: workers stop claiming new shards,
// in-flight shards finish and report, queued telemetry is drained, then
// the process exits. Interrupted campaigns resume from the last durably
// completed shard on restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"armsefi/internal/core/sched"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

// run is the daemon: args without the program name. It serves until ctx
// is cancelled, then drains and returns. Status lines and flag
// diagnostics go to stderr; stdout stays unused, as the daemon has no
// report, and is taken only to match the other commands' run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("campaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		storeDir     = fs.String("store", "", "campaign store directory (coordinator mode; required)")
		addr         = fs.String("addr", ":8440", "HTTP listen address (coordinator mode)")
		coordinator  = fs.String("coordinator", "", "remote coordinator URL (worker mode)")
		node         = fs.String("node", "", "worker node name (default: hostname-pid)")
		workers      = fs.Int("workers", 0, "local worker loops (0 in coordinator mode = API only)")
		maxActive    = fs.Int("max-active", serve.DefaultMaxActive, "campaigns admitted concurrently")
		leaseTTL     = fs.Duration("lease-ttl", serve.DefaultLeaseTTL, "shard lease TTL before requeue")
		straggler    = fs.Duration("straggler-after", 0, "flag a shard execution as a straggler after this long (0 = 3x lease TTL)")
		stalled      = fs.Duration("stalled-after", serve.DefaultStalledAfter, "flag a quiet node as stalled after this long")
		tracePath    = fs.String("trace", "", "write a local JSONL trace of shard scheduling and injections")
		metricsAddr  = fs.String("metrics-addr", "", "serve a standalone /metrics endpoint on this address")
		telemEvery   = fs.Duration("telemetry-every", time.Second, "worker telemetry batch interval (0 disables federation)")
		poll         = fs.Duration("poll", 200*time.Millisecond, "worker idle poll interval")
		targetMargin = fs.Float64("target-margin", 0,
			"coordinator view rule: judge merged convergence views of campaigns that set no target margin of their own against this half-width (0 leaves them unjudged)")
		confidence = fs.Float64("confidence", 0,
			"confidence level of the coordinator view rule and its reported margins (0 = 0.99)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *node == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		*node = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ocli, err := obs.SetupCLI(*tracePath, *metricsAddr)
	if err != nil {
		return err
	}
	defer ocli.Close()

	if *coordinator != "" {
		client := &serve.Client{Base: *coordinator}
		src := serve.Source(client)
		workerObs := ocli.Obs
		var shipper *serve.Shipper
		if *telemEvery > 0 {
			if workerObs == nil {
				workerObs = obs.New(obs.Options{})
				defer workerObs.Close()
			}
			shipper = serve.NewShipper(*node, client, *telemEvery)
			shipper.ObserveMemory(workerObs.LadderMemoryTotals)
			workerObs.Tee(shipper)
			go shipper.Run(ctx)
			src = shipper.WrapSource(client)
		}
		err := runWorkers(ctx, src, *node, max(*workers, 1), *poll, nil, workerObs)
		if shipper != nil {
			if derr := shipper.Drain(); derr != nil && err == nil {
				err = derr
			}
		}
		return err
	}

	if *storeDir == "" {
		return fmt.Errorf("coordinator mode needs -store DIR (or -coordinator URL for worker mode)")
	}
	store, err := serve.OpenStore(*storeDir)
	if err != nil {
		return err
	}

	observer := ocli.Obs
	if observer == nil {
		observer = obs.New(obs.Options{})
		defer observer.Close()
	}

	coord, err := serve.NewCoordinator(serve.CoordConfig{
		Store:            store,
		MaxActive:        *maxActive,
		LeaseTTL:         *leaseTTL,
		StragglerAfter:   *straggler,
		StalledAfter:     *stalled,
		ConvTargetMargin: *targetMargin,
		ConvConfidence:   *confidence,
		Obs:              observer,
	})
	if err != nil {
		return err
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.Handler(coord, observer.Registry())}
	go srv.Serve(lis)
	fmt.Fprintf(stderr, "campaignd: serving on %s, store %s (dashboard at /fleet)\n", lis.Addr(), *storeDir)

	var pool *sched.Pool
	var shipper *serve.Shipper
	workerErr := make(chan error, 1)
	if *workers > 0 {
		pool = sched.NewPool(*workers)
		observer.ObservePool(pool)
		src := serve.Source(coord)
		workerObs := observer
		if *telemEvery > 0 {
			// Local workers federate through a separate observer sharing the
			// coordinator's registry: their records reach the merged fleet
			// trace via the telemetry path, exactly like a remote node's,
			// without double-tracing the coordinator's own shard events.
			workerObs = obs.New(obs.Options{Registry: observer.Registry()})
			shipper = serve.NewShipper(*node, coord, *telemEvery)
			shipper.ObserveMemory(workerObs.LadderMemoryTotals)
			workerObs.Tee(shipper)
			go shipper.Run(ctx)
			src = shipper.WrapSource(coord)
		}
		go func() { workerErr <- runWorkers(ctx, src, *node, *workers, *poll, pool, workerObs) }()
	} else {
		workerErr <- nil
	}

	<-ctx.Done()
	fmt.Fprintln(stderr, "campaignd: draining (in-flight shards finish, new claims stop)")
	err = <-workerErr // workers observe ctx, stop claiming, finish in-flight
	if shipper != nil {
		if derr := shipper.Drain(); derr != nil && err == nil {
			err = derr
		}
	}
	if pool != nil {
		// Belt and braces: hold every pool slot so nothing new can start
		// while the HTTP server shuts down.
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if derr := pool.Drain(drainCtx); derr != nil && err == nil {
			err = derr
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	return err
}

// runWorkers runs n worker loops against src until ctx cancels, sharing
// one pool so the simulated-machine count stays bounded. Every loop
// claims as the same node name — the Worker index distinguishes loops in
// trace records — so fleet health aggregates per machine, not per loop.
func runWorkers(ctx context.Context, src serve.Source, node string, n int, poll time.Duration, pool *sched.Pool, o *obs.Observer) error {
	if pool == nil {
		pool = sched.NewPool(n)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := serve.RunWorker(ctx, serve.WorkerConfig{
				Node:         node,
				Source:       src,
				Pool:         pool,
				Worker:       i,
				Obs:          o,
				PollInterval: poll,
			})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
