package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

// pollInterval is both the worker's idle back-off and the client's
// completion poll. The service defaults (200 ms and 500 ms) would add
// sleep-granularity jitter of that size to every campaign's wall time.
const pollInterval = 5 * time.Millisecond

// buildDir holds everything the benchmark leaves behind in its checkout.
const buildDir = ".bench_build/perfbench"

// remoteSession is the campaign service in one process: a Coordinator
// over a fresh store, its HTTP API on a loopback listener, and one
// worker loop that reaches the coordinator through serve.Client — the
// path a campaignd worker on another host takes. Campaigns are submitted
// through a second Client, as `gefin -remote` does. No telemetry Shipper
// runs: its batches would add timer-driven work to the timed region.
type remoteSession struct {
	cfg    gefin.Config
	names  []string
	dir    string
	srv    *http.Server
	client *serve.Client
	src    *timedSource
	// stop cancels the running worker loop, whose observer is obs and
	// whose RunWorker result arrives on worker; nil when no loop runs.
	stop   context.CancelFunc
	obs    *obs.Observer
	worker chan error
	once   sync.Once
	err    error
}

// openRemote starts the service. It returns once the worker loop's
// first claim has come back, so the loop is live when set-up ends. The
// store lives under .bench_build in the working directory: the benchmark
// writes only inside its checkout.
func openRemote(cfg gefin.Config, names []string) (*remoteSession, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &remoteSession{cfg: cfg, names: names, dir: dir}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *remoteSession) start() error {
	store, err := serve.OpenStore(s.dir)
	if err != nil {
		return err
	}
	coord, err := serve.NewCoordinator(serve.CoordConfig{Store: store, MaxActive: 1})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: serve.Handler(coord, nil)}
	go s.srv.Serve(lis)
	base := "http://" + lis.Addr().String()
	s.client = &serve.Client{Base: base}
	s.src = newTimedSource(&serve.Client{Base: base})
	s.startWorker(nil)
	select {
	case <-s.src.ready:
		return nil
	case err := <-s.worker:
		s.worker <- err
		return fmt.Errorf("worker loop ended during set-up: %v", err)
	}
}

// startWorker starts the worker loop, observed by o when o is non-nil.
func (s *remoteSession) startWorker(o *obs.Observer) {
	ctx, stop := context.WithCancel(context.Background())
	s.stop, s.obs, s.worker = stop, o, make(chan error, 1)
	go func() {
		_, err := serve.RunWorker(ctx, serve.WorkerConfig{
			Node: "perfbench", Source: s.src, Obs: o, PollInterval: pollInterval,
		})
		s.worker <- err
	}()
}

// stopWorker cancels the worker loop, if one runs, and waits for it.
func (s *remoteSession) stopWorker() error {
	if s.stop == nil {
		return nil
	}
	s.stop()
	s.stop = nil
	return <-s.worker
}

// observe restarts the worker loop with observer o unless it already
// runs with it. WorkerConfig.Obs is fixed for a loop's lifetime, so a
// traced campaign needs a loop of its own.
func (s *remoteSession) observe(o *obs.Observer) error {
	if s.stop != nil && s.obs == o {
		return nil
	}
	if err := s.stopWorker(); err != nil {
		return err
	}
	s.startWorker(o)
	return nil
}

func (s *remoteSession) campaign(lc *layerClock, seed int64) (outcome, error) {
	if lc != nil {
		s.src.reset()
		defer func() { lc.serve = s.src.snapshot() }()
	}
	cfg := s.cfg
	cfg.Seed = seed
	id, err := s.client.Submit(serve.SubmitRequest{
		Kind: serve.KindInjection, Injection: &cfg, Workloads: s.names, ShardSize: remoteShardSize,
	})
	if err != nil {
		return outcome{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := s.client.WaitComplete(ctx, id, pollInterval)
	if err != nil {
		return outcome{}, err
	}
	if st.State != serve.StateComplete {
		return outcome{}, fmt.Errorf("campaign %s ended %s", id, st.State)
	}
	res, err := s.client.InjectionResults(id)
	if err != nil {
		return outcome{}, err
	}
	return finish(outcome{inj: res}, res.Workloads)
}

// close stops the worker loop and waits for it, shuts the HTTP server
// down, and removes the store. It is safe to call more than once.
func (s *remoteSession) close() error {
	s.once.Do(func() {
		s.err = s.stopWorker()
		if s.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.srv.Shutdown(ctx); err != nil && s.err == nil {
				s.err = err
			}
		}
		if err := os.RemoveAll(s.dir); err != nil && s.err == nil {
			s.err = err
		}
	})
	return s.err
}

// shardRange is one claimed shard's plan range.
type shardRange struct {
	workload string
	lo, hi   int
}

// serveStats is what the timing decorator saw during one campaign.
type serveStats struct {
	claims    []time.Duration // successful claims only
	completes []time.Duration
	exec      time.Duration // claim return to Complete call, summed
	shards    []shardRange
}

// timedSource wraps the serve.Source handed to RunWorker and times each
// call into it from outside the service: claim and complete latency, and
// the worker's execution time between a claim and its completion.
type timedSource struct {
	src   serve.Source
	ready chan struct{} // closed when the first Claim returns
	first sync.Once

	mu        sync.Mutex
	st        serveStats
	claimedAt time.Time
}

func newTimedSource(src serve.Source) *timedSource {
	return &timedSource{src: src, ready: make(chan struct{})}
}

func (t *timedSource) Claim(node string) (*serve.Assignment, error) {
	t0 := time.Now()
	a, err := t.src.Claim(node)
	now := time.Now()
	t.first.Do(func() { close(t.ready) })
	if err == nil && a != nil {
		t.mu.Lock()
		t.st.claims = append(t.st.claims, now.Sub(t0))
		t.st.shards = append(t.st.shards, shardRange{a.Workload, a.Lo, a.Hi})
		t.claimedAt = now
		t.mu.Unlock()
	}
	return a, err
}

func (t *timedSource) Renew(node, campaign string, shard int) error {
	return t.src.Renew(node, campaign, shard)
}

func (t *timedSource) Complete(node, campaign string, shard int, span int64, payload *serve.ShardPayload) error {
	t0 := time.Now()
	t.mu.Lock()
	t.st.exec += t0.Sub(t.claimedAt)
	t.mu.Unlock()
	err := t.src.Complete(node, campaign, shard, span, payload)
	d := time.Since(t0)
	t.mu.Lock()
	t.st.completes = append(t.st.completes, d)
	t.mu.Unlock()
	return err
}

func (t *timedSource) reset() {
	t.mu.Lock()
	t.st = serveStats{}
	t.mu.Unlock()
}

func (t *timedSource) snapshot() serveStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// runShardsLocal executes the given shard ranges through one
// gefin.ShardRunner in the same order, without the service, and returns
// the time taken: the shard execution path alone.
func runShardsLocal(cfg gefin.Config, shards []shardRange) (time.Duration, error) {
	if len(shards) == 0 {
		return 0, errors.New("no shards were claimed")
	}
	r := gefin.NewShardRunner(cfg)
	t0 := time.Now()
	for _, sh := range shards {
		spec, err := specByName(sh.workload)
		if err != nil {
			return 0, err
		}
		if _, _, err := r.RunShard(spec, sh.lo, sh.hi); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
