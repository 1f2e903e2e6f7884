// Telemetry federation of the campaign service. Worker nodes batch
// their trace records (stamped with the coordinator-minted trace
// context) and health counters into sequenced TelemetryBatches and ship
// them to the coordinator, which merges every node's stream into one
// per-campaign fleet trace and aggregates per-node health for the
// /v1/fleet view. Delivery is at-least-once: a worker resends a batch
// until it is acknowledged, and the coordinator deduplicates by the
// per-node batch sequence number — so a retried batch is applied exactly
// once and the merged trace never double-counts an experiment.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/obs"
)

// traceBuf pairs a per-campaign trace merge buffer with a JSON encoder
// writing into it. Buffers are pooled across Telemetry calls: at steady
// state the coordinator ingests thousands of records per second, and
// encoding each one with json.Marshal plus growing a fresh merge slice
// per batch made the ingest path allocation-bound. Encoder.Encode
// appends the JSONL newline itself and writes straight into the pooled
// buffer, skipping Marshal's per-record result copy and the merge-slice
// regrowth (BenchmarkTelemetryIngest: ~372 KB/op -> ~104 KB/op for a
// 256-record batch).
type traceBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var traceBufPool = sync.Pool{New: func() any {
	tb := &traceBuf{}
	tb.enc = json.NewEncoder(&tb.buf)
	return tb
}}

// TelemetryBatch is one worker-to-coordinator telemetry shipment.
type TelemetryBatch struct {
	// Node identifies the shipping worker node.
	Node string `json:"node"`
	// Seq is the node's monotonic batch sequence number, starting at 1.
	// The coordinator ignores any batch whose Seq it has already applied,
	// making retries (at-least-once delivery) safe.
	Seq int64 `json:"seq"`
	// Records are the trace records emitted since the previous batch, in
	// the node's emission order.
	Records []obs.Record `json:"records,omitempty"`
	// Rate is the node's experiments/second over the batch interval;
	// Items and Shards are lifetime totals for the node.
	Rate   float64 `json:"rate"`
	Items  int64   `json:"items"`
	Shards int64   `json:"shards"`
	// RenewNS are lease-renew round-trip latencies observed since the
	// previous batch, in nanoseconds.
	RenewNS []int64 `json:"renew_ns,omitempty"`
	// Convergence carries the node's latest estimator snapshots per
	// campaign — cumulative tallies restated whole each time, so the
	// coordinator replaces (never adds) and retries stay safe.
	Convergence []ConvUpdate `json:"convergence,omitempty"`
	// LadderBytes / LadderSharedBytes snapshot the node's checkpoint-ladder
	// memory across its cached workbenches: total retained bytes, and the
	// bytes shared across rungs through page and cache-set interning.
	LadderBytes       int64 `json:"ladder_bytes,omitempty"`
	LadderSharedBytes int64 `json:"ladder_shared_bytes,omitempty"`
}

// TelemetrySink receives telemetry batches. *Coordinator implements it
// directly (local workers), *Client implements it over HTTP.
type TelemetrySink interface {
	Telemetry(b *TelemetryBatch) error
}

// Telemetry ingests one worker batch: deduplicates by the node's batch
// sequence, merges the batch's records into the per-campaign fleet
// traces (re-sequenced in arrival order), updates the node's health and
// the fleet metrics, and tallies observed outcome classes per campaign.
func (c *Coordinator) Telemetry(b *TelemetryBatch) error {
	if b == nil || b.Node == "" {
		return nil
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	nh := c.nodes[b.Node]
	if nh == nil {
		nh = &nodeHealth{}
		c.nodes[b.Node] = nh
	}
	nh.lastSeen = c.cfg.Now()
	if b.Seq > 0 && b.Seq <= c.cursors[b.Node] {
		return nil // duplicate of an already-applied batch: acknowledge, drop
	}
	nh.rate = b.Rate
	nh.items = b.Items
	nh.shards = b.Shards
	nh.ladderBytes = b.LadderBytes
	nh.ladderShared = b.LadderSharedBytes
	c.cfg.Obs.FleetNode(b.Node, b.Rate, b.Items, b.Shards)
	for _, ns := range b.RenewNS {
		c.cfg.Obs.FleetRenew(b.Node, float64(ns)/1e9)
	}
	// Merge records into per-campaign traces, preserving batch order (the
	// node's emission order), re-sequenced in coordinator arrival order.
	var perCamp map[string]*traceBuf
	for i := range b.Records {
		rec := b.Records[i]
		if rec.Campaign == "" {
			continue // not correlated to a campaign: nothing to merge into
		}
		c.traceSeq++
		rec.Seq = c.traceSeq
		tb := perCamp[rec.Campaign]
		if tb == nil {
			if perCamp == nil {
				perCamp = make(map[string]*traceBuf)
			}
			tb = traceBufPool.Get().(*traceBuf)
			tb.buf.Reset()
			perCamp[rec.Campaign] = tb
		}
		pre := tb.buf.Len()
		if err := tb.enc.Encode(rec); err != nil {
			tb.buf.Truncate(pre) // drop the partial line, keep prior records
			continue
		}
		if rec.Kind == obs.KindInjection || rec.Kind == obs.KindStrike {
			t := c.tallies[rec.Campaign]
			if t == nil {
				t = make(map[fault.Class]int)
				c.tallies[rec.Campaign] = t
			}
			t[rec.Class]++
			if rec.Kind == obs.KindInjection {
				pt := c.prunes[rec.Campaign]
				if pt == nil {
					pt = &pruneTally{}
					c.prunes[rec.Campaign] = pt
				}
				switch {
				case rec.Predicted:
					pt.predicted++
				case rec.Dedup:
					pt.deduped++
				default:
					pt.simulated++
				}
			}
		}
	}
	for id, tb := range perCamp {
		_ = c.cfg.Store.AppendTrace(id, tb.buf.Bytes()) // best-effort observability artifact
		traceBufPool.Put(tb)
	}
	c.applyConv(b.Node, b.Convergence)
	if b.Seq > 0 {
		c.cursors[b.Node] = b.Seq
		_ = c.cfg.Store.SaveTelemetryCursors(c.cursors) // best-effort; loss re-applies idempotent-enough batches
	}
	return nil
}

// Shipper batches a worker node's trace records and health counters and
// ships them to a TelemetrySink. It implements obs.RecordSink, so it is
// attached to the worker's observer with Observer.Tee; wrap the worker's
// Source with WrapSource to also observe lease-renew latency and shard
// completions. Safe for concurrent use.
type Shipper struct {
	node  string
	sink  TelemetrySink
	every time.Duration
	// memStats, when set, is sampled at each flush to report the node's
	// checkpoint-ladder memory (Observer.LadderMemoryTotals fits).
	memStats func() (total, shared int64)

	mu         sync.Mutex
	buf        []obs.Record
	renews     []int64
	conv       map[convID]obs.ConvSnapshot // latest estimator state per campaign
	pending    *TelemetryBatch             // built but unacknowledged: resend before building the next
	seq        int64
	items      int64
	shards     int64
	itemsDelta int64
	last       time.Time
}

// NewShipper builds a shipper for node over sink, flushing every
// interval (zero picks 1s) while Run is active.
func NewShipper(node string, sink TelemetrySink, every time.Duration) *Shipper {
	if every <= 0 {
		every = time.Second
	}
	return &Shipper{node: node, sink: sink, every: every, last: time.Now()}
}

// ObserveMemory attaches a checkpoint-memory sampler whose figures ride
// in every batch. Attach before Run.
func (s *Shipper) ObserveMemory(fn func() (total, shared int64)) { s.memStats = fn }

// EmitRecord queues one trace record for the next batch (obs.RecordSink).
// Convergence records are intercepted rather than queued: only the
// latest estimator state matters, so the shipper keeps one snapshot per
// (campaign, estimator) and ships the survivors as ConvUpdates — a
// chain emitting thousands of looks costs one wire entry per estimator
// per batch instead of thousands of trace records.
func (s *Shipper) EmitRecord(rec obs.Record) {
	s.mu.Lock()
	if rec.Kind == obs.KindConvergence && rec.Campaign != "" {
		if s.conv == nil {
			s.conv = make(map[convID]obs.ConvSnapshot)
		}
		key := obs.ConvKey{Workload: rec.Workload, Comp: rec.Comp, Class: rec.Class}
		s.conv[convID{campaign: rec.Campaign, key: key}] = obs.ConvSnapshot{
			ConvKey: key,
			K:       rec.K,
			N:       rec.N,
			Planned: rec.Planned,
			Est:     rec.Est,
			Margin:  rec.Margin,
			Look:    rec.Look,
			Met:     rec.Met,
			Stopped: rec.Stopped,
		}
		s.mu.Unlock()
		return
	}
	s.buf = append(s.buf, rec)
	if rec.Kind == obs.KindInjection || rec.Kind == obs.KindStrike {
		s.items++
		s.itemsDelta++
	}
	s.mu.Unlock()
}

func (s *Shipper) renewObserved(d time.Duration) {
	s.mu.Lock()
	s.renews = append(s.renews, d.Nanoseconds())
	s.mu.Unlock()
}

func (s *Shipper) shardDone() {
	s.mu.Lock()
	s.shards++
	s.mu.Unlock()
}

// Flush ships one batch: the pending unacknowledged batch if there is
// one (at-least-once delivery — its sequence number is unchanged, so the
// coordinator deduplicates), otherwise a fresh batch of everything
// queued since the last flush. An empty fresh batch still ships — it is
// the node's heartbeat, keeping its last-seen time and rate current.
func (s *Shipper) Flush() error {
	s.mu.Lock()
	b := s.pending
	if b == nil {
		now := time.Now()
		rate := 0.0
		if el := now.Sub(s.last).Seconds(); el > 0 {
			rate = float64(s.itemsDelta) / el
		}
		s.seq++
		b = &TelemetryBatch{
			Node:    s.node,
			Seq:     s.seq,
			Records: s.buf,
			Rate:    rate,
			Items:   s.items,
			Shards:  s.shards,
			RenewNS: s.renews,
		}
		if s.memStats != nil {
			b.LadderBytes, b.LadderSharedBytes = s.memStats()
		}
		if len(s.conv) > 0 {
			b.Convergence = make([]ConvUpdate, 0, len(s.conv))
			for id, snap := range s.conv {
				b.Convergence = append(b.Convergence, ConvUpdate{Campaign: id.campaign, ConvSnapshot: snap})
			}
			sort.Slice(b.Convergence, func(i, j int) bool {
				a, c := b.Convergence[i], b.Convergence[j]
				if a.Campaign != c.Campaign {
					return a.Campaign < c.Campaign
				}
				if a.Workload != c.Workload {
					return a.Workload < c.Workload
				}
				if a.Comp != c.Comp {
					return a.Comp < c.Comp
				}
				return a.Class < c.Class
			})
			s.conv = nil
		}
		s.buf = nil
		s.renews = nil
		s.itemsDelta = 0
		s.last = now
		s.pending = b
	}
	s.mu.Unlock()
	err := s.sink.Telemetry(b)
	s.mu.Lock()
	if err == nil && s.pending == b {
		s.pending = nil
	}
	s.mu.Unlock()
	return err
}

// Run flushes on a ticker until ctx is cancelled. Call Drain afterwards
// to ship whatever the final tick missed.
func (s *Shipper) Run(ctx context.Context) {
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = s.Flush()
		}
	}
}

// Drain ships every queued record, retrying once on failure. It checks
// for emptiness before flushing, so a drained shipper does not emit a
// gratuitous heartbeat batch.
func (s *Shipper) Drain() error {
	fails := 0
	for {
		s.mu.Lock()
		empty := s.pending == nil && len(s.buf) == 0 && len(s.renews) == 0 && len(s.conv) == 0
		s.mu.Unlock()
		if empty {
			return nil
		}
		if err := s.Flush(); err != nil {
			if fails++; fails >= 2 {
				return err
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		fails = 0
	}
}

// WrapSource instruments a worker Source with the shipper: lease-renew
// round-trips feed the renew-latency histogram and accepted completions
// bump the node's shard counter.
func (s *Shipper) WrapSource(src Source) Source {
	return &shippedSource{src: src, sh: s}
}

type shippedSource struct {
	src Source
	sh  *Shipper
}

func (w *shippedSource) Claim(node string) (*Assignment, error) { return w.src.Claim(node) }

func (w *shippedSource) Renew(node, campaign string, shard int) error {
	t0 := time.Now()
	err := w.src.Renew(node, campaign, shard)
	if err == nil {
		w.sh.renewObserved(time.Since(t0))
	}
	return err
}

func (w *shippedSource) Complete(node, campaign string, shard int, span int64, payload *ShardPayload) error {
	err := w.src.Complete(node, campaign, shard, span, payload)
	if err == nil {
		w.sh.shardDone()
	}
	return err
}
