// Package obs is the campaign observability layer: per-injection
// lifecycle traces (trace.go), a metrics registry with atomic hot-path
// updates (metrics.go), live HTTP exposition with pprof (http.go), and a
// trace reader that recomputes campaign statistics from a JSONL file so a
// trace can be cross-checked against the engine's own Result
// (summary.go).
//
// The campaign engines (internal/core/gefin, internal/core/beam) accept
// an *Observer in their Config and call its hooks from the worker hot
// path; a nil Observer makes every hook a no-op, so untraced campaigns
// pay nothing.
package obs

import (
	"io"
	"sync"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/core/sched"
	"armsefi/internal/soc"
)

// Options parameterises an Observer.
type Options struct {
	// TraceWriter receives the JSONL lifecycle trace; nil disables
	// tracing (metrics still work).
	TraceWriter io.Writer
	// Registry receives the campaign metrics; nil allocates a private
	// registry (reachable via Registry()).
	Registry *Registry
}

// Observer bundles a campaign's trace emitter and metrics and is the
// hook surface the engines instrument against. All methods are safe on a
// nil receiver (no-ops) and for concurrent use.
type Observer struct {
	trace *Tracer
	reg   *Registry
	epoch time.Time

	// ladderMu guards the per-workload checkpoint-memory snapshot behind
	// LadderMemoryTotals (telemetry reads it off the hot path).
	ladderMu     sync.Mutex
	ladderTotal  map[string]int
	ladderShared map[string]int

	outcomes   map[outcomeKey]*Counter
	latency    map[string]*Histogram
	granted    *Counter
	denied     *Counter
	rungHits   *Counter
	ffCycles   *Counter
	earlyExits *Counter
	done       *Gauge
	total      *Gauge
	workers    *Gauge
	rate       *Gauge
}

type outcomeKey struct {
	kind  string
	comp  fault.Component
	class fault.Class
}

// New builds an Observer. The epoch for trace start offsets is the call
// instant.
func New(opts Options) *Observer {
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{
		reg:      reg,
		epoch:    time.Now(),
		outcomes: make(map[outcomeKey]*Counter),
		latency:  make(map[string]*Histogram),
	}
	if opts.TraceWriter != nil {
		o.trace = NewTracer(opts.TraceWriter)
	}
	// Pre-resolve the class x component counter grid for both kinds so
	// the per-injection path is a map read plus an atomic add.
	for _, kind := range []string{KindInjection, KindStrike} {
		for _, comp := range fault.Components() {
			for _, cls := range fault.Classes() {
				o.outcomes[outcomeKey{kind, comp, cls}] = reg.Counter(
					"armsefi_outcomes_total", "experiment outcomes by kind, class, and component",
					"kind", kind, "class", cls.String(), "comp", comp.String())
			}
		}
		o.latency[kind] = reg.Histogram(
			"armsefi_experiment_wall_seconds", "wall time of one injection or strike",
			DefaultLatencyBuckets(), "kind", kind)
	}
	o.granted = reg.Counter("armsefi_clone_acquires_total",
		"clone workbench pool-slot acquisitions by result", "result", "granted")
	o.denied = reg.Counter("armsefi_clone_acquires_total",
		"clone workbench pool-slot acquisitions by result", "result", "denied")
	o.rungHits = reg.Counter("armsefi_ladder_rung_hits_total",
		"injection runs fast-forwarded by a checkpoint-ladder rung restore")
	o.ffCycles = reg.Counter("armsefi_ladder_fastforward_cycles_total",
		"simulated cycles skipped by rung restores and golden-convergence early exits")
	o.earlyExits = reg.Counter("armsefi_ladder_early_exits_total",
		"injection runs cut short by golden convergence")
	o.done = reg.Gauge("armsefi_campaign_done", "experiments completed so far")
	o.total = reg.Gauge("armsefi_campaign_total", "experiments planned (grows as workloads register)")
	o.workers = reg.Gauge("armsefi_campaign_workers", "live campaign workers")
	o.rate = reg.Gauge("armsefi_campaign_rate", "aggregate campaign throughput, experiments/sec")
	return o
}

// On reports whether hooks do anything; engines may use it to skip
// record assembly entirely.
func (o *Observer) On() bool { return o != nil }

// Tracing reports whether a trace consumer (writer or teed sink) is
// attached.
func (o *Observer) Tracing() bool { return o != nil && o.trace != nil }

// Tee routes a copy of every trace record this observer emits into s,
// creating a sink-only tracer if no trace writer was configured. The
// campaign-service worker tees its observer into the telemetry shipper
// so records federate to the coordinator whether or not a local -trace
// file is open. Attach before the campaign starts.
func (o *Observer) Tee(s RecordSink) {
	if o == nil || s == nil {
		return
	}
	if o.trace == nil {
		o.trace = NewTracer(nil)
	}
	o.trace.Tee(s)
}

// Registry returns the metrics registry (nil on a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Record finalises one experiment: stamps the record's wall-clock fields
// from start/stop, streams it to the trace, and updates the outcome
// counters and latency histogram.
func (o *Observer) Record(rec Record, start, stop time.Time) {
	if o == nil {
		return
	}
	rec.StartNS = start.Sub(o.epoch).Nanoseconds()
	rec.WallNS = stop.Sub(start).Nanoseconds()
	if c, ok := o.outcomes[outcomeKey{rec.Kind, rec.Comp, rec.Class}]; ok {
		c.Inc()
	} else { // ablation components outside the pre-resolved grid
		o.reg.Counter("armsefi_outcomes_total", "experiment outcomes by kind, class, and component",
			"kind", rec.Kind, "class", rec.Class.String(), "comp", rec.Comp.String()).Inc()
	}
	if h, ok := o.latency[rec.Kind]; ok {
		h.Observe(float64(rec.WallNS) / 1e9)
	}
	o.trace.Emit(&rec)
}

// MeterTick feeds a sched.Meter snapshot into the campaign gauges. The
// engines call it from inside Meter.Tick, so values are monotone per
// campaign.
func (o *Observer) MeterTick(s sched.Snapshot) {
	if o == nil {
		return
	}
	o.done.Set(float64(s.Done))
	o.total.Set(float64(s.Total))
	o.workers.Set(float64(s.Workers))
	o.rate.Set(s.Rate)
}

// ObservePool binds the pool-occupancy gauges to the campaign's worker
// pool (rebinding is fine: fitcompare runs two campaigns back to back).
func (o *Observer) ObservePool(p *sched.Pool) {
	if o == nil || p == nil {
		return
	}
	o.reg.GaugeFunc("armsefi_pool_in_use", "worker-pool tokens currently held",
		func() float64 { return float64(p.InUse()) })
	o.reg.GaugeFunc("armsefi_pool_capacity", "worker-pool token capacity",
		func() float64 { return float64(p.Cap()) })
}

// LadderRun records what the checkpoint ladder did for one experiment: a
// rung restore above cycle zero (with the golden-prefix cycles it
// skipped) and/or a golden-convergence early exit (with the tail cycles
// it saved). Campaigns without a ladder never call it.
func (o *Observer) LadderRun(s soc.LadderStats) {
	if o == nil {
		return
	}
	if s.FastForwarded > 0 {
		o.rungHits.Inc()
		o.ffCycles.Add(int64(s.FastForwarded))
	}
	if s.EarlyExit {
		o.earlyExits.Inc()
		o.ffCycles.Add(int64(s.TailSaved))
	}
}

// Mechanism records one propagation-provenance verdict into the
// mechanism x component x workload counter grid. Only provenance-enabled
// campaigns call it, so the on-demand counter resolution is off the
// plain hot path.
func (o *Observer) Mechanism(workload string, comp fault.Component, m fault.Mechanism) {
	if o == nil {
		return
	}
	o.reg.Counter("armsefi_mechanism_total",
		"propagation-provenance mechanism verdicts by workload and component",
		"workload", workload, "comp", comp.String(), "mechanism", m.String()).Inc()
}

// Predicted records one campaign pre-filter verdict: an injection proven
// masked from the liveness log and excluded from simulation. It feeds
// the predicted counter grid only — the outcome grid is updated by the
// Record call the engine emits for the predicted record, keeping
// armsefi_outcomes_total consistent with the (byte-identical) Result,
// while armsefi_mechanism_total stays simulated-only so the
// predicted/simulated split is recoverable from metrics alone.
func (o *Observer) Predicted(workload string, comp fault.Component, m fault.Mechanism) {
	if o == nil {
		return
	}
	o.reg.Counter("armsefi_predicted_total",
		"injections proven masked by the campaign pre-filter, by workload, component, and mechanism",
		"workload", workload, "comp", comp.String(), "mechanism", m.String()).Inc()
}

// Deduped records one equivalence-class materialization: a class member
// resolved from its representative's simulated outcome. Like Predicted
// it feeds its own counter grid only — the outcome grid is updated by
// the dedup-tagged Record the engine emits — so the
// simulated/deduplicated split is recoverable from metrics alone.
func (o *Observer) Deduped(workload string, comp fault.Component) {
	if o == nil {
		return
	}
	o.reg.Counter("armsefi_dedup_total",
		"injections resolved from an equivalence-class representative, by workload and component",
		"workload", workload, "comp", comp.String()).Inc()
}

// DedupClasses publishes a workload plan's equivalence-class size
// distribution: one histogram observation per multi-member class. The
// buckets cover the plausible collision range of a sampled campaign —
// classes bigger than the top bound land in +Inf.
func (o *Observer) DedupClasses(workload string, sizes []int) {
	if o == nil || len(sizes) == 0 {
		return
	}
	h := o.reg.Histogram("armsefi_dedup_class_size",
		"equivalence-class sizes (members per multi-member class) of deduplicated campaign plans",
		[]float64{2, 3, 4, 6, 8, 12, 16, 24, 32, 64},
		"workload", workload)
	for _, n := range sizes {
		h.Observe(float64(n))
	}
}

// LadderMemory publishes a workload ladder's checkpoint memory: total
// retained bytes and the bytes shared across rungs by interning DRAM
// pages and cache sets (bytes a copy-per-rung encoding would have
// duplicated — and, because rungs are immutable, the same figure every
// additional worker avoids re-materialising).
func (o *Observer) LadderMemory(workload string, total, shared int) {
	if o == nil {
		return
	}
	o.reg.Gauge("armsefi_ladder_memory_bytes",
		"checkpoint-ladder retained memory by workload", "workload", workload).Set(float64(total))
	o.reg.Gauge("armsefi_ladder_shared_bytes",
		"checkpoint-ladder bytes shared across rungs through page and cache-set interning, by workload",
		"workload", workload).Set(float64(shared))
	o.ladderMu.Lock()
	if o.ladderTotal == nil {
		o.ladderTotal = make(map[string]int)
		o.ladderShared = make(map[string]int)
	}
	o.ladderTotal[workload] = total
	o.ladderShared[workload] = shared
	o.ladderMu.Unlock()
}

// LadderMemoryTotals sums the latest per-workload checkpoint-memory
// figures across workloads — the node-level numbers telemetry federates
// to the fleet view.
func (o *Observer) LadderMemoryTotals() (total, shared int64) {
	if o == nil {
		return 0, 0
	}
	o.ladderMu.Lock()
	defer o.ladderMu.Unlock()
	for _, n := range o.ladderTotal {
		total += int64(n)
	}
	for _, n := range o.ladderShared {
		shared += int64(n)
	}
	return total, shared
}

// AceRun records one ACE-analysis lifetime pass: the workload/component
// analysed and its resulting AVF estimate (0..1). ACE runs are golden
// replays, not injections, so they feed gauges rather than the outcome
// grid.
func (o *Observer) AceRun(workload string, comp fault.Component, avf float64, wall time.Duration) {
	if o == nil {
		return
	}
	o.reg.Counter("armsefi_ace_runs_total", "ACE lifetime-analysis passes",
		"workload", workload, "comp", comp.String()).Inc()
	o.reg.Gauge("armsefi_ace_avf", "ACE-estimated architectural vulnerability factor",
		"workload", workload, "comp", comp.String()).Set(avf)
	o.reg.Histogram("armsefi_ace_wall_seconds", "wall time of one ACE analysis pass",
		DefaultLatencyBuckets()).Observe(wall.Seconds())
}

// ShardEvent traces one campaign-service shard lifecycle event
// (claimed / completed / requeued) and updates the shard counters. It
// bypasses the outcome grid — shards are scheduling units, not
// experiments — but shares the tracer, so a campaign's JSONL trace
// interleaves shard scheduling with the injections it covers.
// The metric labels carry only the event name — campaign ids, shard
// indices, and node names are unbounded and belong in the trace record,
// not in metric cardinality.
func (o *Observer) ShardEvent(campaign, workload, node, event string, shard, items int, span int64, wall time.Duration) {
	if o == nil {
		return
	}
	o.reg.Counter("armsefi_serve_shard_events_total",
		"campaign-service shard lifecycle events", "event", event).Inc()
	if event == "completed" {
		o.reg.Counter("armsefi_serve_items_total",
			"experiments completed through the campaign service").Add(int64(items))
	}
	if o.trace != nil {
		now := time.Now()
		o.trace.Emit(&Record{
			Kind:     KindShard,
			Workload: workload,
			Campaign: campaign,
			Shard:    shard,
			Node:     node,
			Span:     span,
			Event:    event,
			Items:    items,
			StartNS:  now.Add(-wall).Sub(o.epoch).Nanoseconds(),
			WallNS:   wall.Nanoseconds(),
		})
	}
}

// Lease records campaign-service lease-manager activity: grants, renews,
// and expiries (an expiry requeues the shard for another node).
func (o *Observer) Lease(event string) {
	if o == nil {
		return
	}
	o.reg.Counter("armsefi_serve_leases_total",
		"campaign-service shard lease events", "event", event).Inc()
}

// ObserveService binds the campaign-service gauges: admission-queue
// depth, campaigns actively running, and live shard leases.
func (o *Observer) ObserveService(queued, active, leases func() float64) {
	if o == nil {
		return
	}
	o.reg.GaugeFunc("armsefi_serve_queue_depth",
		"campaigns waiting for admission", queued)
	o.reg.GaugeFunc("armsefi_serve_active_campaigns",
		"campaigns currently running", active)
	o.reg.GaugeFunc("armsefi_serve_live_leases",
		"shard leases currently held by worker nodes", leases)
}

// FleetNode records one node's telemetry snapshot into the per-node
// fleet gauges: reported throughput, cumulative experiments, and
// cumulative shards. The coordinator calls it per telemetry batch, so
// the node label cardinality is bounded by the fleet size.
func (o *Observer) FleetNode(node string, rate float64, items, shards int64) {
	if o == nil {
		return
	}
	o.reg.Gauge("armsefi_fleet_node_rate",
		"per-node experiment throughput reported via telemetry, experiments/sec",
		"node", node).Set(rate)
	o.reg.Gauge("armsefi_fleet_node_items",
		"cumulative experiments a node has reported via telemetry",
		"node", node).Set(float64(items))
	o.reg.Gauge("armsefi_fleet_node_shards",
		"cumulative shards a node has completed, as reported via telemetry",
		"node", node).Set(float64(shards))
}

// FleetRenew records one lease-renew round-trip latency observed by a
// worker node (shipped to the coordinator in its telemetry batches).
func (o *Observer) FleetRenew(node string, seconds float64) {
	if o == nil {
		return
	}
	o.reg.Histogram("armsefi_fleet_renew_seconds",
		"lease-renew round-trip latency by node",
		RenewLatencyBuckets(), "node", node).Observe(seconds)
}

// ObserveFleet binds the fleet-health gauges: shard executions running
// past the straggler threshold and telemetry-reporting nodes that have
// gone quiet past the stalled threshold.
func (o *Observer) ObserveFleet(stragglers, stalled func() float64) {
	if o == nil {
		return
	}
	o.reg.GaugeFunc("armsefi_fleet_stragglers",
		"shard executions running past the straggler threshold", stragglers)
	o.reg.GaugeFunc("armsefi_fleet_stalled_nodes",
		"telemetry-reporting nodes not heard from within the stalled threshold", stalled)
}

// CloneTry records one clone-slot acquisition attempt; the granted/denied
// ratio is the clone-acquire success rate.
func (o *Observer) CloneTry(ok bool) {
	if o == nil {
		return
	}
	if ok {
		o.granted.Inc()
	} else {
		o.denied.Inc()
	}
}

// Close flushes the trace and reports any write error. The observer
// stays usable for metrics afterwards.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	return o.trace.Flush()
}
