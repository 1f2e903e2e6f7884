// Campaign coordinator: owns the durable store, admits queued campaigns
// against a bounded number of active slots, leases shards to worker
// nodes (local goroutines and remote daemons use the same claim / renew
// / complete path), requeues the shards of dead nodes when their leases
// expire, and assembles completed campaigns into engine Results that are
// bit-identical to an uninterrupted in-process run.

package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/beam"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
)

// Campaign states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateComplete  = "complete"
	StateCancelled = "cancelled"
)

// Defaults for CoordConfig zero values.
const (
	DefaultMaxActive = 2
	DefaultLeaseTTL  = 30 * time.Second
	// DefaultStalledAfter is how long a telemetry-reporting node may go
	// quiet before the fleet view flags it stalled.
	DefaultStalledAfter = 15 * time.Second
)

// CoordConfig parameterises a Coordinator.
type CoordConfig struct {
	Store *Store
	// MaxActive bounds how many campaigns run concurrently; submissions
	// beyond it wait in the admission queue. Zero picks DefaultMaxActive.
	MaxActive int
	// LeaseTTL is how long a claimed shard stays assigned to a node
	// without a renewal before it is requeued for another node. Zero
	// picks DefaultLeaseTTL.
	LeaseTTL time.Duration
	// StragglerAfter is how long a shard execution may run before the
	// fleet view flags it a straggler (the lease is still honoured — a
	// straggler is slow, not dead). Zero picks 3x LeaseTTL.
	StragglerAfter time.Duration
	// StalledAfter is how long a node may go without telemetry or lease
	// activity before the fleet view flags it stalled. Zero picks
	// DefaultStalledAfter.
	StalledAfter time.Duration
	// ConvTargetMargin / ConvConfidence are the coordinator's view rule:
	// merged convergence views of campaigns that set no target margin of
	// their own are judged against these (campaignd -target-margin /
	// -confidence). Zero margin leaves Met unjudged; zero confidence
	// defaults to 0.99.
	ConvTargetMargin float64
	ConvConfidence   float64
	// Obs receives service metrics (queue depth, leases, shards/sec,
	// fleet health) and shard lifecycle trace records. Nil disables
	// instrumentation.
	Obs *obs.Observer
	// Now is the clock; nil picks time.Now. Tests inject a fake clock to
	// drive lease expiry deterministically.
	Now func() time.Time
}

type lease struct {
	node    string
	span    int64 // coordinator-minted span id of this execution
	expires time.Time
	started time.Time
}

type campaign struct {
	man    *Manifest
	log    *Log
	state  string
	done   map[int]json.RawMessage
	nodes  map[int]string
	winner map[int]int64 // span of the accepted completion per done shard
	pend   []int         // shard indices neither done nor leased, in claim order
	leases map[int]*lease
}

// nodeHealth is the coordinator's view of one worker node, fed by
// telemetry batches and lease activity.
type nodeHealth struct {
	lastSeen     time.Time
	rate         float64
	items        int64
	shards       int64
	ladderBytes  int64
	ladderShared int64
}

// pruneTally is a campaign's observed predicted/deduplicated/simulated
// injection split, accumulated from federated trace records.
type pruneTally struct {
	predicted int
	simulated int
	deduped   int
}

// Coordinator schedules campaigns over the durable store. All methods
// are safe for concurrent use.
type Coordinator struct {
	cfg CoordConfig

	mu       sync.Mutex
	camps    map[string]*campaign
	order    []string // submission order (store order on resume)
	nextSpan int64    // next span id to mint (resumes past replayed spans)

	// tmu guards the telemetry state: the merged per-campaign fleet
	// traces, the per-node batch cursors and health, and the observed
	// outcome tallies. It is ordered after mu (mu may be held when tmu is
	// taken, never the reverse), so shard-event tracing under mu cannot
	// deadlock against telemetry ingestion.
	tmu      sync.Mutex
	traceSeq int64 // merged-trace sequence numbers, arrival order
	cursors  map[string]int64
	nodes    map[string]*nodeHealth
	tallies  map[string]map[fault.Class]int
	prunes   map[string]*pruneTally
	// conv holds each node's latest estimator snapshots per campaign:
	// campaign id -> node -> estimator key -> snapshot. Merged on read.
	conv map[string]map[string]map[obs.ConvKey]obs.ConvSnapshot
}

// NewCoordinator opens the store, replays every stored campaign, and
// resumes the incomplete ones: their undone shards go back to pending,
// exactly as if the shards had simply not been claimed yet.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: coordinator needs a store")
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = DefaultMaxActive
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.StragglerAfter <= 0 {
		cfg.StragglerAfter = 3 * cfg.LeaseTTL
	}
	if cfg.StalledAfter <= 0 {
		cfg.StalledAfter = DefaultStalledAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:      cfg,
		camps:    make(map[string]*campaign),
		nextSpan: 1,
		cursors:  cfg.Store.LoadTelemetryCursors(),
		nodes:    make(map[string]*nodeHealth),
		tallies:  make(map[string]map[fault.Class]int),
		prunes:   make(map[string]*pruneTally),
		conv:     make(map[string]map[string]map[obs.ConvKey]obs.ConvSnapshot),
	}
	ids, err := cfg.Store.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		man, err := cfg.Store.LoadManifest(id)
		if err != nil {
			return nil, err
		}
		rep, err := cfg.Store.Recover(id, man)
		if err != nil {
			return nil, err
		}
		camp := &campaign{man: man, done: rep.Done, nodes: rep.Nodes, winner: rep.Spans, leases: make(map[int]*lease)}
		if camp.winner == nil {
			camp.winner = make(map[int]int64)
		}
		// Span minting resumes past every durably recorded span, so a
		// restarted coordinator never reissues a span id.
		for _, sp := range camp.winner {
			if sp >= c.nextSpan {
				c.nextSpan = sp + 1
			}
		}
		switch {
		case rep.Cancelled:
			camp.state = StateCancelled
		case len(rep.Done) == len(man.Shards):
			camp.state = StateComplete
		default:
			camp.state = StateQueued
			for i := range man.Shards {
				if _, ok := rep.Done[i]; !ok {
					camp.pend = append(camp.pend, i)
				}
			}
		}
		c.camps[id] = camp
		c.order = append(c.order, id)
	}
	cfg.Obs.ObserveService(
		func() float64 { return float64(c.countState(StateQueued)) },
		func() float64 { return float64(c.countState(StateRunning)) },
		func() float64 { return float64(c.countLeases()) },
	)
	cfg.Obs.ObserveFleet(
		func() float64 { return float64(c.countStragglers()) },
		func() float64 { return float64(c.countStalled()) },
	)
	return c, nil
}

// touchNode refreshes a node's last-seen time from lease activity.
// Callers may hold c.mu (tmu is ordered after mu).
func (c *Coordinator) touchNode(node string) {
	c.tmu.Lock()
	nh := c.nodes[node]
	if nh == nil {
		nh = &nodeHealth{}
		c.nodes[node] = nh
	}
	nh.lastSeen = c.cfg.Now()
	c.tmu.Unlock()
}

// appendTraceRecords re-sequences records in arrival order and appends
// them to the campaign's merged fleet trace. Per-node batches arrive in
// each node's emission order, so within one worker goroutine the merged
// trace preserves emission order — the property Summarize's Seq sort
// relies on for bit-identical beam event sums. Best-effort: the merged
// trace is an observability artifact, not the durable record.
func (c *Coordinator) appendTraceRecords(id string, recs []obs.Record) {
	if len(recs) == 0 {
		return
	}
	c.tmu.Lock()
	defer c.tmu.Unlock()
	var buf []byte
	for i := range recs {
		c.traceSeq++
		recs[i].Seq = c.traceSeq
		line, err := json.Marshal(recs[i])
		if err != nil {
			continue
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	_ = c.cfg.Store.AppendTrace(id, buf)
}

// traceShardEvent mirrors one coordinator-side shard lifecycle event
// into the campaign's merged fleet trace.
func (c *Coordinator) traceShardEvent(id string, sh Shard, shard int, node, event string, span int64, wall time.Duration) {
	c.appendTraceRecords(id, []obs.Record{{
		Kind:     obs.KindShard,
		Workload: sh.Workload,
		Campaign: id,
		Shard:    shard,
		Node:     node,
		Span:     span,
		Event:    event,
		Items:    sh.Items(),
		WallNS:   wall.Nanoseconds(),
	}})
}

func (c *Coordinator) countState(state string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, camp := range c.camps {
		if camp.state == state {
			n++
		}
	}
	return n
}

func (c *Coordinator) countLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, camp := range c.camps {
		n += len(camp.leases)
	}
	return n
}

// BuildManifest validates a submission and derives its deterministic
// shard table. shardSize bounds injection shard length in plan slots
// (zero picks one shard per component); beam campaigns always shard at
// the component-chain boundary.
func BuildManifest(kind string, inj *gefin.Config, bm *beam.Config, workloads []string, shardSize int) (*Manifest, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("serve: a campaign needs at least one workload")
	}
	// A repeated workload's shards would all match its first copy at
	// assembly.
	if _, err := bench.Lookup(workloads); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	man := &Manifest{Version: StoreVersion, Kind: kind, Workloads: workloads}
	switch kind {
	case KindInjection:
		if inj == nil {
			return nil, fmt.Errorf("serve: injection campaign needs an injection config")
		}
		if inj.Exhaustive {
			return nil, fmt.Errorf("serve: exhaustive sweeps run locally only (the plan is enumerated from each workload's liveness replay, so shard ranges cannot be cut at submission time)")
		}
		man.Injection = inj
		planLen := gefin.PlanLen(*inj)
		comps := len(inj.Components)
		if comps == 0 {
			comps = fault.NumComponents
		}
		if shardSize <= 0 {
			shardSize = planLen / comps // one shard per component
		}
		for _, w := range workloads {
			for lo := 0; lo < planLen; lo += shardSize {
				hi := lo + shardSize
				if hi > planLen {
					hi = planLen
				}
				man.Shards = append(man.Shards, Shard{Workload: w, Lo: lo, Hi: hi})
			}
		}
	case KindBeam:
		if bm == nil {
			return nil, fmt.Errorf("serve: beam campaign needs a beam config")
		}
		man.Beam = bm
		for _, w := range workloads {
			for ci := 0; ci < beam.ShardsPerWorkload; ci++ {
				man.Shards = append(man.Shards, Shard{Workload: w, Lo: ci, Hi: ci + 1})
			}
		}
	default:
		return nil, fmt.Errorf("serve: unknown campaign kind %q", kind)
	}
	return man, nil
}

// Submit durably creates a campaign and queues it for admission. An
// empty manifest ID is assigned a fresh one; the assigned ID is
// returned.
func (c *Coordinator) Submit(man *Manifest) (string, error) {
	if man.ID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("serve: %w", err)
		}
		man.ID = "c" + hex.EncodeToString(b[:])
	}
	man.Created = c.cfg.Now().UTC()
	if err := c.cfg.Store.Create(man); err != nil {
		return "", err
	}
	camp := &campaign{
		man:    man,
		state:  StateQueued,
		done:   make(map[int]json.RawMessage),
		nodes:  make(map[int]string),
		winner: make(map[int]int64),
		leases: make(map[int]*lease),
	}
	for i := range man.Shards {
		camp.pend = append(camp.pend, i)
	}
	c.mu.Lock()
	c.camps[man.ID] = camp
	c.order = append(c.order, man.ID)
	c.mu.Unlock()
	return man.ID, nil
}

// sweepLocked requeues the shards of expired leases and admits queued
// campaigns into free active slots. Callers hold c.mu.
func (c *Coordinator) sweepLocked() {
	now := c.cfg.Now()
	active := 0
	for _, id := range c.order {
		camp := c.camps[id]
		if camp.state != StateRunning {
			continue
		}
		for shard, l := range camp.leases {
			if now.After(l.expires) {
				delete(camp.leases, shard)
				camp.pend = append(camp.pend, shard)
				c.cfg.Obs.Lease("expired")
				sh := camp.man.Shards[shard]
				c.cfg.Obs.ShardEvent(id, sh.Workload, l.node,
					"requeued", shard, sh.Items(), l.span, now.Sub(l.started))
				c.traceShardEvent(id, sh, shard, l.node, "requeued", l.span, now.Sub(l.started))
			}
		}
		active++
	}
	for _, id := range c.order {
		if active >= c.cfg.MaxActive {
			break
		}
		camp := c.camps[id]
		if camp.state == StateQueued {
			camp.state = StateRunning
			active++
		}
	}
}

// Assignment is a leased shard handed to a worker node: everything the
// node needs to execute the shard independently (the configs are small;
// shipping them per-assignment keeps workers stateless).
type Assignment struct {
	Campaign  string        `json:"campaign"`
	Kind      string        `json:"kind"`
	Injection *gefin.Config `json:"injection,omitempty"`
	Beam      *beam.Config  `json:"beam,omitempty"`
	Shard     int           `json:"shard"`
	Workload  string        `json:"workload"`
	Lo        int           `json:"lo"`
	Hi        int           `json:"hi"`
	// LeaseMS is the lease TTL in milliseconds; the node must renew
	// comfortably within it or the shard is requeued.
	LeaseMS int64 `json:"lease_ms"`
	// Span is the coordinator-minted span id of this execution; the node
	// stamps it on every trace record the shard emits and echoes it back
	// on Complete.
	Span int64 `json:"span"`
}

// Claim leases the next pending shard to node, preferring earlier-
// submitted campaigns. It returns nil when nothing is claimable (no
// admitted campaign has pending shards).
func (c *Coordinator) Claim(node string) (*Assignment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	now := c.cfg.Now()
	for _, id := range c.order {
		camp := c.camps[id]
		if camp.state != StateRunning || len(camp.pend) == 0 {
			continue
		}
		shard := camp.pend[0]
		camp.pend = camp.pend[1:]
		span := c.nextSpan
		c.nextSpan++
		camp.leases[shard] = &lease{node: node, span: span, expires: now.Add(c.cfg.LeaseTTL), started: now}
		sh := camp.man.Shards[shard]
		c.cfg.Obs.Lease("granted")
		c.cfg.Obs.ShardEvent(id, sh.Workload, node, "claimed", shard, sh.Items(), span, 0)
		c.traceShardEvent(id, sh, shard, node, "claimed", span, 0)
		c.touchNode(node)
		return &Assignment{
			Campaign:  id,
			Kind:      camp.man.Kind,
			Injection: camp.man.Injection,
			Beam:      camp.man.Beam,
			Shard:     shard,
			Workload:  sh.Workload,
			Lo:        sh.Lo,
			Hi:        sh.Hi,
			LeaseMS:   c.cfg.LeaseTTL.Milliseconds(),
			Span:      span,
		}, nil
	}
	return nil, nil
}

// Renew extends node's lease on a shard. Renewing a lease that has
// already been requeued (or reassigned) fails — the node must abandon
// the shard; its eventual Complete would be a harmless duplicate.
func (c *Coordinator) Renew(node, id string, shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.camps[id]
	if !ok {
		return fmt.Errorf("serve: unknown campaign %s", id)
	}
	l, ok := camp.leases[shard]
	if !ok || l.node != node {
		return fmt.Errorf("serve: node %s holds no lease on %s shard %d", node, id, shard)
	}
	l.expires = c.cfg.Now().Add(c.cfg.LeaseTTL)
	c.cfg.Obs.Lease("renewed")
	c.touchNode(node)
	return nil
}

// Complete durably records a shard result. It is idempotent: a
// completion for an already-done shard (a node finishing after its lease
// expired and another node re-ran the shard) is acknowledged and
// discarded — by determinism the payloads are identical, and the first
// durable record wins. span is the Assignment span the node is echoing
// back; the accepted span becomes the shard's winner, and WriteTrace
// filters the merged trace down to winning executions.
func (c *Coordinator) Complete(node, id string, shard int, span int64, payload *ShardPayload) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.camps[id]
	if !ok {
		return fmt.Errorf("serve: unknown campaign %s", id)
	}
	if camp.state == StateCancelled {
		return nil // late completion of a cancelled campaign: drop
	}
	if shard < 0 || shard >= len(camp.man.Shards) {
		return fmt.Errorf("serve: shard %d outside campaign %s", shard, id)
	}
	if _, dup := camp.done[shard]; dup {
		return nil
	}
	if camp.log == nil {
		log, err := c.cfg.Store.OpenLog(id)
		if err != nil {
			return err
		}
		camp.log = log
	}
	// Durability first: the in-memory state only advances once the
	// record is fsync'd, so a crash between the two replays cleanly.
	if err := camp.log.AppendShard(shard, node, span, data); err != nil {
		return err
	}
	camp.done[shard] = data
	camp.nodes[shard] = node
	camp.winner[shard] = span
	var wall time.Duration
	if l, ok := camp.leases[shard]; ok {
		wall = c.cfg.Now().Sub(l.started)
		delete(camp.leases, shard)
	} else {
		// The shard was requeued (lease expired) but this node finished
		// first: pull it back out of pending.
		for i, p := range camp.pend {
			if p == shard {
				camp.pend = append(camp.pend[:i], camp.pend[i+1:]...)
				break
			}
		}
	}
	sh := camp.man.Shards[shard]
	c.cfg.Obs.ShardEvent(id, sh.Workload, node, "completed", shard, sh.Items(), span, wall)
	c.traceShardEvent(id, sh, shard, node, "completed", span, wall)
	c.touchNode(node)
	if len(camp.done) == len(camp.man.Shards) {
		camp.state = StateComplete
		camp.log.Close()
		camp.log = nil
	}
	return nil
}

// Cancel durably cancels a campaign; its pending shards are dropped and
// in-flight completions are discarded.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.camps[id]
	if !ok {
		return fmt.Errorf("serve: unknown campaign %s", id)
	}
	if camp.state == StateComplete || camp.state == StateCancelled {
		return fmt.Errorf("serve: campaign %s is already %s", id, camp.state)
	}
	if camp.log == nil {
		log, err := c.cfg.Store.OpenLog(id)
		if err != nil {
			return err
		}
		camp.log = log
	}
	if err := camp.log.AppendEvent("cancelled"); err != nil {
		return err
	}
	camp.state = StateCancelled
	camp.pend = nil
	camp.leases = make(map[int]*lease)
	camp.log.Close()
	camp.log = nil
	return nil
}

// LeaseStatus describes one live shard lease.
type LeaseStatus struct {
	Shard     int    `json:"shard"`
	Workload  string `json:"workload"`
	Node      string `json:"node"`
	ExpiresMS int64  `json:"expires_ms"`
}

// CampaignStatus is the public snapshot of one campaign.
type CampaignStatus struct {
	ID          string        `json:"id"`
	Kind        string        `json:"kind"`
	State       string        `json:"state"`
	Workloads   []string      `json:"workloads"`
	ShardsDone  int           `json:"shards_done"`
	ShardsTotal int           `json:"shards_total"`
	ItemsDone   int           `json:"items_done"`
	ItemsTotal  int           `json:"items_total"`
	Leases      []LeaseStatus `json:"leases,omitempty"`
	Created     time.Time     `json:"created"`
}

// Status snapshots one campaign.
func (c *Coordinator) Status(id string) (*CampaignStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	camp, ok := c.camps[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown campaign %s", id)
	}
	return c.statusLocked(id, camp), nil
}

// StatusAll snapshots every campaign in submission order.
func (c *Coordinator) StatusAll() []*CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	out := make([]*CampaignStatus, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(id, c.camps[id]))
	}
	return out
}

func (c *Coordinator) statusLocked(id string, camp *campaign) *CampaignStatus {
	now := c.cfg.Now()
	st := &CampaignStatus{
		ID:          id,
		Kind:        camp.man.Kind,
		State:       camp.state,
		Workloads:   camp.man.Workloads,
		ShardsDone:  len(camp.done),
		ShardsTotal: len(camp.man.Shards),
		Created:     camp.man.Created,
	}
	for i, sh := range camp.man.Shards {
		st.ItemsTotal += sh.Items()
		if _, ok := camp.done[i]; ok {
			st.ItemsDone += sh.Items()
		}
	}
	shards := make([]int, 0, len(camp.leases))
	for sh := range camp.leases {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	for _, sh := range shards {
		l := camp.leases[sh]
		st.Leases = append(st.Leases, LeaseStatus{
			Shard:     sh,
			Workload:  camp.man.Shards[sh].Workload,
			Node:      l.node,
			ExpiresMS: l.expires.Sub(now).Milliseconds(),
		})
	}
	return st
}

// Results assembles a completed campaign into its engine Result —
// bit-identical to an uninterrupted in-process run of the same Config
// and seed, regardless of how execution was sharded, interrupted, or
// spread over nodes. The returned value is *gefin.Result or
// *beam.Result.
func (c *Coordinator) Results(id string) (any, error) {
	c.mu.Lock()
	camp, ok := c.camps[id]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("serve: unknown campaign %s", id)
	}
	if camp.state != StateComplete {
		c.mu.Unlock()
		return nil, fmt.Errorf("serve: campaign %s is %s, not complete", id, camp.state)
	}
	man := camp.man
	done := make(map[int]json.RawMessage, len(camp.done))
	for k, v := range camp.done {
		done[k] = v
	}
	c.mu.Unlock()
	return Assemble(man, done)
}

// WriteTrace streams the campaign's merged fleet trace to w, filtered to
// winning executions: shard lifecycle records always pass, and an
// injection/strike record passes iff its span is the one whose Complete
// the coordinator accepted for that shard. Records of a double-executed
// shard (lease expiry, requeue, both nodes ran it) are thereby excluded
// exactly once, so trace counts cross-check against assembled Results.
func (c *Coordinator) WriteTrace(id string, w io.Writer) error {
	c.mu.Lock()
	camp, ok := c.camps[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("serve: unknown campaign %s", id)
	}
	winner := make(map[int]int64, len(camp.winner))
	for sh, sp := range camp.winner {
		winner[sh] = sp
	}
	c.mu.Unlock()
	c.tmu.Lock()
	data, err := c.cfg.Store.ReadTrace(id)
	c.tmu.Unlock()
	if err != nil {
		return err
	}
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec obs.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn tail of a crashed append: skip
		}
		if rec.Kind != obs.KindShard {
			sp, done := winner[rec.Shard]
			if !done || rec.Span != sp {
				continue
			}
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}

// Assemble reconstructs the engine Result of a fully completed campaign
// from its manifest and durable shard payloads.
func Assemble(man *Manifest, done map[int]json.RawMessage) (any, error) {
	switch man.Kind {
	case KindInjection:
		metas := make([]gefin.ShardMeta, len(man.Workloads))
		outs := make([][]gefin.ShardOutcome, len(man.Workloads))
		for wi, w := range man.Workloads {
			var meta *gefin.ShardMeta
			// Manifest shard order within a workload is plan order.
			for i, sh := range man.Shards {
				if sh.Workload != w {
					continue
				}
				raw, ok := done[i]
				if !ok {
					return nil, fmt.Errorf("serve: campaign %s: shard %d missing", man.ID, i)
				}
				var p ShardPayload
				if err := json.Unmarshal(raw, &p); err != nil {
					return nil, fmt.Errorf("serve: campaign %s shard %d: %w", man.ID, i, err)
				}
				if len(outs[wi]) != sh.Lo {
					return nil, fmt.Errorf("serve: campaign %s: shard %d starts at %d, have %d outcomes", man.ID, i, sh.Lo, len(outs[wi]))
				}
				outs[wi] = append(outs[wi], p.Outcomes...)
				if meta == nil {
					meta = p.InjMeta
				}
			}
			if meta == nil {
				return nil, fmt.Errorf("serve: campaign %s: no shards for workload %s", man.ID, w)
			}
			metas[wi] = *meta
		}
		// The same assembly as an in-process run, stopping rule included:
		// Workloads and the stop summary come out byte-identical to
		// gefin.Run's. The prune and dedup splits ride outside Workloads,
		// so remote optimised campaigns assemble byte-identical Workloads
		// to plain ones.
		return gefin.AssembleResult(*man.Injection, man.Workloads, metas, outs)
	case KindBeam:
		metas := make([]beam.ShardMeta, len(man.Workloads))
		chains := make([][]*beam.ChainOutcome, len(man.Workloads))
		for wi, w := range man.Workloads {
			chains[wi] = make([]*beam.ChainOutcome, beam.ShardsPerWorkload)
			var meta *beam.ShardMeta
			for i, sh := range man.Shards {
				if sh.Workload != w {
					continue
				}
				raw, ok := done[i]
				if !ok {
					return nil, fmt.Errorf("serve: campaign %s: shard %d missing", man.ID, i)
				}
				var p ShardPayload
				if err := json.Unmarshal(raw, &p); err != nil {
					return nil, fmt.Errorf("serve: campaign %s shard %d: %w", man.ID, i, err)
				}
				if sh.Lo < 0 || sh.Lo >= beam.ShardsPerWorkload {
					return nil, fmt.Errorf("serve: campaign %s: chain shard %d out of range", man.ID, sh.Lo)
				}
				chains[wi][sh.Lo] = p.Chain
				if meta == nil {
					meta = p.BeamMeta
				}
			}
			if meta == nil {
				return nil, fmt.Errorf("serve: campaign %s: no shards for workload %s", man.ID, w)
			}
			metas[wi] = *meta
		}
		// The same assembler beam.Run ends in: Workloads and the stop
		// summary come out byte-identical to an in-process run.
		res, err := beam.AssembleResult(*man.Beam, man.Workloads, metas, chains)
		if err != nil {
			return nil, err
		}
		return res, nil
	default:
		return nil, fmt.Errorf("serve: unknown campaign kind %q", man.Kind)
	}
}
