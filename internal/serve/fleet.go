// Fleet view of the campaign service: a live aggregate of every
// campaign's progress, every node's health (fed by telemetry heartbeats
// and lease activity), outcome-class running totals observed from
// federated trace records, and straggler/stalled detection — served as
// JSON at /api/v1/fleet and as a self-refreshing HTML dashboard at
// /fleet.

package serve

import (
	"sort"

	"armsefi/internal/obs"
	"armsefi/internal/stats"
)

// NodeStatus is the fleet view of one worker node.
type NodeStatus struct {
	Node string `json:"node"`
	// AgeMS is how long ago the node was last seen (telemetry batch or
	// lease activity).
	AgeMS int64 `json:"age_ms"`
	// Rate is the node's self-reported experiments/second over its last
	// telemetry interval; Items and Shards are lifetime totals.
	Rate   float64 `json:"rate"`
	Items  int64   `json:"items"`
	Shards int64   `json:"shards"`
	// LeasesHeld counts the shard leases the node currently holds.
	LeasesHeld int `json:"leases_held"`
	// LadderBytes / LadderSharedBytes are the node's self-reported
	// checkpoint-ladder memory: total retained bytes, and the bytes shared
	// across rungs through page and cache-set interning rather than copied.
	LadderBytes       int64 `json:"ladder_bytes,omitempty"`
	LadderSharedBytes int64 `json:"ladder_shared_bytes,omitempty"`
	// Stalled marks a node quiet for longer than the stalled threshold.
	Stalled bool `json:"stalled"`
}

// Straggler is a shard execution running longer than the straggler
// threshold. The lease is still honoured — a straggler is slow, not
// dead — but the dashboard surfaces it.
type Straggler struct {
	Campaign  string `json:"campaign"`
	Shard     int    `json:"shard"`
	Workload  string `json:"workload"`
	Node      string `json:"node"`
	RunningMS int64  `json:"running_ms"`
}

// FleetCampaign is one campaign's slice of the fleet view.
type FleetCampaign struct {
	CampaignStatus
	// Outcomes tallies outcome classes observed in federated trace
	// records since the coordinator started — a live running total, not
	// the assembled Result (workers without telemetry contribute nothing
	// here but still complete shards).
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Predicted / Deduped / Simulated split the campaign's observed
	// injections into those the pre-filter proved masked without
	// simulation, those materialized from an equivalence-class
	// representative, and those that ran (optimised injection campaigns
	// only; from federated trace records, like Outcomes).
	Predicted int `json:"predicted,omitempty"`
	Deduped   int `json:"deduped,omitempty"`
	Simulated int `json:"simulated,omitempty"`
	// Stragglers lists this campaign's over-threshold shard executions.
	Stragglers []Straggler `json:"stragglers,omitempty"`
	// Conv is the campaign's merged convergence view: every node's latest
	// estimator tallies summed, margins judged under the campaign's (or
	// coordinator's) rule. Advisory, like Outcomes.
	Conv []obs.ConvSnapshot `json:"conv,omitempty"`
}

// FleetStatus is the full fleet snapshot.
type FleetStatus struct {
	Campaigns []*FleetCampaign `json:"campaigns"`
	Nodes     []NodeStatus     `json:"nodes"`
	// StragglerAfterMS and StalledAfterMS echo the thresholds the
	// snapshot was judged against.
	StragglerAfterMS int64 `json:"straggler_after_ms"`
	StalledAfterMS   int64 `json:"stalled_after_ms"`
}

// Fleet snapshots the whole fleet: campaign progress with observed
// outcome totals and stragglers, plus per-node health.
func (c *Coordinator) Fleet() *FleetStatus {
	c.mu.Lock()
	c.sweepLocked()
	now := c.cfg.Now()
	fs := &FleetStatus{
		Campaigns:        make([]*FleetCampaign, 0, len(c.order)),
		StragglerAfterMS: c.cfg.StragglerAfter.Milliseconds(),
		StalledAfterMS:   c.cfg.StalledAfter.Milliseconds(),
	}
	leasesByNode := make(map[string]int)
	rules := make(map[string]stats.SeqRule, len(c.order))
	for _, id := range c.order {
		camp := c.camps[id]
		rules[id] = c.campaignRuleLocked(camp)
		fc := &FleetCampaign{CampaignStatus: *c.statusLocked(id, camp)}
		for shard, l := range camp.leases {
			leasesByNode[l.node]++
			if run := now.Sub(l.started); run > c.cfg.StragglerAfter {
				fc.Stragglers = append(fc.Stragglers, Straggler{
					Campaign:  id,
					Shard:     shard,
					Workload:  camp.man.Shards[shard].Workload,
					Node:      l.node,
					RunningMS: run.Milliseconds(),
				})
			}
		}
		sort.Slice(fc.Stragglers, func(i, j int) bool { return fc.Stragglers[i].Shard < fc.Stragglers[j].Shard })
		fs.Campaigns = append(fs.Campaigns, fc)
	}
	c.mu.Unlock()

	c.tmu.Lock()
	for _, fc := range fs.Campaigns {
		if t := c.tallies[fc.ID]; len(t) > 0 {
			fc.Outcomes = make(map[string]int, len(t))
			for cls, n := range t {
				fc.Outcomes[cls.String()] = n
			}
		}
		if pt := c.prunes[fc.ID]; pt != nil && (pt.predicted > 0 || pt.deduped > 0) {
			fc.Predicted = pt.predicted
			fc.Deduped = pt.deduped
			fc.Simulated = pt.simulated
		}
		if byNode := c.conv[fc.ID]; len(byNode) > 0 {
			fc.Conv = mergeConv(byNode, rules[fc.ID])
		}
	}
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	// Nodes only known through leases (no telemetry yet) still appear.
	for name := range leasesByNode {
		if _, ok := c.nodes[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ns := NodeStatus{Node: name, LeasesHeld: leasesByNode[name]}
		if nh := c.nodes[name]; nh != nil {
			age := now.Sub(nh.lastSeen)
			ns.AgeMS = age.Milliseconds()
			ns.Rate = nh.rate
			ns.Items = nh.items
			ns.Shards = nh.shards
			ns.LadderBytes = nh.ladderBytes
			ns.LadderSharedBytes = nh.ladderShared
			ns.Stalled = age > c.cfg.StalledAfter
		}
		fs.Nodes = append(fs.Nodes, ns)
	}
	c.tmu.Unlock()
	return fs
}

// countStragglers and countStalled back the armsefi_fleet_* gauges.
func (c *Coordinator) countStragglers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	n := 0
	for _, camp := range c.camps {
		for _, l := range camp.leases {
			if now.Sub(l.started) > c.cfg.StragglerAfter {
				n++
			}
		}
	}
	return n
}

func (c *Coordinator) countStalled() int {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	now := c.cfg.Now()
	n := 0
	for _, nh := range c.nodes {
		if now.Sub(nh.lastSeen) > c.cfg.StalledAfter {
			n++
		}
	}
	return n
}

// fleetHTML is the live dashboard: a static page polling /api/v1/fleet.
const fleetHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>armsefi fleet</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; min-width: 40rem; }
th, td { text-align: left; padding: .25rem .8rem; border-bottom: 1px solid #ddd; }
th { border-bottom: 2px solid #999; }
.bar { background: #eee; width: 12rem; height: .8rem; border-radius: .4rem; overflow: hidden; display: inline-block; vertical-align: middle; }
.bar i { display: block; height: 100%; background: #4a90d9; }
.chip { display: inline-block; padding: 0 .45rem; margin-right: .3rem; border-radius: .6rem; background: #eef; font-size: .85em; }
.bad { color: #b00; font-weight: 600; }
.ok { color: #2a7; }
.spark { vertical-align: middle; margin-left: .2rem; }
.conv { white-space: nowrap; }
#err { color: #b00; }
small { color: #777; }
</style>
</head>
<body>
<h1>armsefi fleet</h1>
<div id="err"></div>
<h2>Campaigns</h2>
<table id="camps"><thead><tr>
<th>id</th><th>kind</th><th>state</th><th>progress</th><th>outcomes</th><th>pre-filter / dedup</th><th>convergence</th><th>stragglers</th>
</tr></thead><tbody></tbody></table>
<h2>Nodes</h2>
<table id="nodes"><thead><tr>
<th>node</th><th>last seen</th><th>leases</th><th>rate (exp/s)</th><th>items</th><th>shards</th><th>ckpt mem</th><th>health</th>
</tr></thead><tbody></tbody></table>
<p><small>polls /api/v1/fleet every 2s · straggler &gt; <span id="strag"></span>ms · stalled &gt; <span id="stall"></span>ms</small></p>
<script>
function esc(s) { return String(s).replace(/[&<>"]/g, c => ({'&':'&amp;','<':'&lt;','>':'&gt;','"':'&quot;'}[c])); }
// Margin history rings per (campaign, workload, component): each poll
// appends the worst class margin, capped at 40 samples, rendered as an
// inline SVG sparkline so convergence is visible at a glance.
const hist = {};
function spark(key, v) {
  const h = hist[key] = (hist[key] || []).concat([v]).slice(-40);
  const max = Math.max(...h, 1e-9);
  const w = 60, ht = 14;
  const step = h.length > 1 ? w / (h.length - 1) : 0;
  const pts = h.map((m, i) => (i * step).toFixed(1) + ',' + (ht - 1 - (ht - 2) * m / max).toFixed(1)).join(' ');
  return '<svg class="spark" width="' + w + '" height="' + ht + '"><polyline points="' + pts +
    '" fill="none" stroke="#4a90d9" stroke-width="1"/></svg>';
}
function convCell(c) {
  const by = {};
  (c.conv || []).forEach(s => {
    const k = s.workload + '/' + s.comp;
    const b = by[k] = by[k] || { margin: 0, met: true, avf: null };
    b.margin = Math.max(b.margin, s.margin);
    b.met = b.met && !!s.met;
    if (s.class === 'Masked') b.avf = 1 - s.est;
  });
  const keys = Object.keys(by).sort();
  if (!keys.length) return '<small>-</small>';
  return keys.map(k => {
    const b = by[k];
    return '<span class="conv"><span class="chip">' + esc(k) +
      ' avf ' + (b.avf == null ? '?' : b.avf.toFixed(3)) +
      ' &plusmn;' + b.margin.toFixed(3) +
      (b.met ? ' <span class="ok">&#10003;</span>' : '') + '</span>' +
      spark(c.id + '|' + k, b.margin) + '</span>';
  }).join('<br>');
}
async function tick() {
  try {
    const r = await fetch('/api/v1/fleet');
    const f = await r.json();
    document.getElementById('err').textContent = '';
    document.getElementById('strag').textContent = f.straggler_after_ms;
    document.getElementById('stall').textContent = f.stalled_after_ms;
    const cb = document.querySelector('#camps tbody');
    cb.innerHTML = (f.campaigns || []).map(c => {
      const pct = c.items_total ? Math.round(100 * c.items_done / c.items_total) : 0;
      const outs = Object.entries(c.outcomes || {}).map(([k, v]) => '<span class="chip">' + esc(k) + ' ' + v + '</span>').join('');
      const pf = (c.predicted || c.deduped)
        ? ((c.predicted ? '<span class="chip">predicted ' + c.predicted + '</span>' : '') +
           (c.deduped ? '<span class="chip">deduped ' + c.deduped + '</span>' : '') +
           '<span class="chip">simulated ' + (c.simulated || 0) + '</span>')
        : '<small>off</small>';
      const strag = (c.stragglers || []).map(s => '<span class="bad">#' + s.shard + '@' + esc(s.node) + '</span>').join(' ') || '<span class="ok">none</span>';
      return '<tr><td>' + esc(c.id) + '</td><td>' + esc(c.kind) + '</td><td>' + esc(c.state) +
        '</td><td><span class="bar"><i style="width:' + pct + '%"></i></span> ' +
        c.shards_done + '/' + c.shards_total + ' shards, ' + c.items_done + '/' + c.items_total + ' items</td><td>' +
        outs + '</td><td>' + pf + '</td><td>' + convCell(c) + '</td><td>' + strag + '</td></tr>';
    }).join('');
    const mb = b => b ? (b / 1048576).toFixed(1) + ' MiB' : '-';
    const nb = document.querySelector('#nodes tbody');
    nb.innerHTML = (f.nodes || []).map(n =>
      '<tr><td>' + esc(n.node) + '</td><td>' + (n.age_ms / 1000).toFixed(1) + 's ago</td><td>' + n.leases_held +
      '</td><td>' + n.rate.toFixed(2) + '</td><td>' + n.items + '</td><td>' + n.shards +
      '</td><td>' + mb(n.ladder_bytes) + (n.ladder_shared_bytes ? ' <small>(' + mb(n.ladder_shared_bytes) + ' shared)</small>' : '') +
      '</td><td>' + (n.stalled ? '<span class="bad">stalled</span>' : '<span class="ok">live</span>') + '</td></tr>'
    ).join('');
  } catch (e) {
    document.getElementById('err').textContent = 'fleet fetch failed: ' + e;
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
`
