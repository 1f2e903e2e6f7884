package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
)

// killSource wraps a Source and cancels a context after n completions —
// the in-process analogue of SIGKILLing a worker daemon mid-campaign
// (the CI smoke job does it to a real process; this pins the same
// contract at unit speed).
type killSource struct {
	Source
	remaining int
	kill      context.CancelFunc
}

func (k *killSource) Complete(node, campaign string, shard int, span int64, p *ShardPayload) error {
	err := k.Source.Complete(node, campaign, shard, span, p)
	k.remaining--
	if k.remaining == 0 {
		k.kill()
	}
	return err
}

// TestKillResumeDeterminism is the service's determinism pin: a campaign
// killed mid-run — with a torn shard-log tail, as a real crash leaves —
// and resumed by a fresh coordinator over the same store must produce
// Workloads bytes identical to an uninterrupted single-process run of
// the same Config and seed.
func TestKillResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injection campaigns")
	}
	cfg := gefin.Config{
		Seed:               1234,
		FaultsPerComponent: 4,
		Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
		Workers:            1,
	}
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	direct, err := gefin.Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c1, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	man, err := BuildManifest(KindInjection, &cfg, nil, []string{"crc32"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c1.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 4 {
		t.Fatalf("want 4 shards, got %d", len(man.Shards))
	}

	// Phase 1: a worker completes two shards, then the process "dies".
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	done1, err := RunWorker(ctx1, WorkerConfig{
		Node:   "victim",
		Source: &killSource{Source: c1, remaining: 2, kill: kill},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done1 != 2 {
		t.Fatalf("victim completed %d shards, want 2", done1)
	}
	// The crash also tore the log tail mid-append.
	appendRaw(t, store.logPath(id), `{"v":1,"type":"shard","sha`)

	// Phase 2: a fresh coordinator over the same store recovers the torn
	// tail and resumes. Its victim's leases are still live (TTL 1h), so
	// resume must come from the durable log, not lease bookkeeping.
	c2, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDone != 2 {
		t.Fatalf("resumed with %d shards done, want 2", st.ShardsDone)
	}
	ctx2, cancel := context.WithCancel(context.Background())
	go func() {
		// Stop the resuming worker once the campaign completes.
		for {
			if s, err := c2.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx2, WorkerConfig{Node: "resumer", Source: c2, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()

	res, err := c2.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	assembled, ok := res.(*gefin.Result)
	if !ok {
		t.Fatalf("results type %T", res)
	}
	dj, _ := json.Marshal(direct.Workloads)
	aj, _ := json.Marshal(assembled.Workloads)
	if string(dj) != string(aj) {
		t.Fatalf("kill/resume diverged from uninterrupted run:\n direct  %s\n resumed %s", dj, aj)
	}
}

// TestDedupServiceDeterminism pins the deduplicator through the
// campaign service: a deduplicating remote run assembles to the same
// Workloads bytes as a plain (non-dedup) local run, and the wire
// outcomes reassemble the dedup split for the coordinator's summary.
func TestDedupServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injection campaigns")
	}
	plain := gefin.Config{
		Seed:               5,
		FaultsPerComponent: 150,
		Components:         []fault.Component{fault.CompDTLB},
		Workers:            1,
	}
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	direct, err := gefin.Run(plain, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := plain
	dcfg.Dedup = true
	// One full-plan shard: the shard-local partition then equals the
	// campaign partition, so the wire split carries every class.
	man, err := BuildManifest(KindInjection, &dcfg, nil, []string{"crc32"}, gefin.PlanLen(dcfg))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if s, err := c.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx, WorkerConfig{Node: "n", Source: c, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()

	res, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	assembled := res.(*gefin.Result)
	dj, _ := json.Marshal(direct.Workloads)
	aj, _ := json.Marshal(assembled.Workloads)
	if string(dj) != string(aj) {
		t.Fatalf("service dedup run diverged from plain run:\n direct  %s\n service %s", dj, aj)
	}
	if assembled.Dedup == nil {
		t.Fatal("assembled result carries no DedupSummary")
	}
	if s := assembled.Dedup; s.Deduped == 0 || s.Deduped+s.Simulated != gefin.PlanLen(dcfg) {
		t.Fatalf("assembled dedup split %d/%d over plan %d", s.Deduped, s.Simulated, gefin.PlanLen(dcfg))
	}
}

// TestStopServiceDeterminism pins the sequential stopping rule through
// the campaign service: the workers execute the whole plan in 100-slot
// shards, and assembly replays the stop controller, so a stopped remote
// campaign's Workloads and stop summary are byte-identical to gefin.Run's.
func TestStopServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real injection campaigns")
	}
	cfg := gefin.Config{
		Seed:               7,
		FaultsPerComponent: 400,
		Components:         []fault.Component{fault.CompL1D},
		TargetMargin:       0.1,
		Prune:              true,
		Workers:            1,
	}
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	direct, err := gefin.Run(cfg, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stop == nil || direct.Stop.Saved == 0 {
		t.Fatalf("local run did not stop early: %+v", direct.Stop)
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	man, err := BuildManifest(KindInjection, &cfg, nil, []string{"crc32"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if s, err := c.Status(id); err == nil && s.State == StateComplete {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if _, err := RunWorker(ctx, WorkerConfig{Node: "n", Source: c, PollInterval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	cancel()

	res, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	assembled := res.(*gefin.Result)
	for _, part := range []struct {
		name           string
		direct, remote any
	}{
		{"Workloads", direct.Workloads, assembled.Workloads},
		{"Stop", direct.Stop, assembled.Stop},
	} {
		dj, _ := json.Marshal(part.direct)
		aj, _ := json.Marshal(part.remote)
		if string(dj) != string(aj) {
			t.Fatalf("service %s diverged from the local run:\n direct  %s\n service %s", part.name, dj, aj)
		}
	}
}

// TestBeamServiceDeterminism pins the beam half end to end through the
// coordinator: chain shards executed through the service assemble to the
// same Workloads bytes as beam.Run, and with a target margin to the same
// stop summary too.
func TestBeamServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real beam campaigns")
	}
	arms := []struct {
		name string
		cfg  beam.Config
	}{
		{"plain", beam.Config{Seed: 99, BeamHours: 1, StrikesPerComponent: 2, Workers: 1}},
		{"target-margin", beam.Config{Seed: 99, BeamHours: 1, StrikesPerComponent: 40, Workers: 1,
			TargetMargin: 0.35, StopCheckEvery: 8}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cfg := arm.cfg
			spec, ok := bench.ByName("crc32")
			if !ok {
				t.Fatal("crc32 missing")
			}
			direct, err := beam.Run(cfg, []bench.Spec{spec}, nil)
			if err != nil {
				t.Fatal(err)
			}

			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			clk := newFakeClock()
			c, err := NewCoordinator(CoordConfig{Store: store, LeaseTTL: time.Hour, Now: clk.Now})
			if err != nil {
				t.Fatal(err)
			}
			man, err := BuildManifest(KindBeam, nil, &cfg, []string{"crc32"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			id, err := c.Submit(man)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Shards) != beam.ShardsPerWorkload {
				t.Fatalf("want %d chain shards, got %d", beam.ShardsPerWorkload, len(man.Shards))
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				for {
					if s, err := c.Status(id); err == nil && s.State == StateComplete {
						cancel()
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}()
			if _, err := RunWorker(ctx, WorkerConfig{Node: "n", Source: c, PollInterval: 10 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			cancel()

			res, err := c.Results(id)
			if err != nil {
				t.Fatal(err)
			}
			assembled := res.(*beam.Result)
			dj, _ := json.Marshal(direct.Workloads)
			aj, _ := json.Marshal(assembled.Workloads)
			if string(dj) != string(aj) {
				t.Fatalf("service beam run diverged from direct run:\n direct  %s\n service %s", dj, aj)
			}
			ds, _ := json.Marshal(direct.Stop)
			as, _ := json.Marshal(assembled.Stop)
			if string(ds) != string(as) {
				t.Fatalf("service stop summary diverged from direct run:\n direct  %s\n service %s", ds, as)
			}
			if cfg.TargetMargin > 0 && assembled.Stop == nil {
				t.Fatal("service beam run carries no stop summary")
			}
		})
	}
}
