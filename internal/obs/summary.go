// Trace reader: recomputes campaign statistics from a JSONL lifecycle
// trace, so a trace file can be cross-checked against the engine's own
// Result and explained. cmd/tracestat, the one inspection command, reads
// every trace through it: class tables, masking mechanisms, the
// predicted/deduped/simulated split and the final convergence estimators.
// The engines' obs tests assert exact agreement at every worker count.

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"armsefi/internal/core/fault"
)

// ComponentSummary aggregates one workload x component's trace records.
type ComponentSummary struct {
	// Records counts trace records for this component.
	Records int
	// Counts is the per-class outcome tally — for injection traces this
	// must equal the engine's ComponentResult.Counts exactly.
	Counts map[fault.Class]int
	// Weights is the per-class sum of stratification weights, accumulated
	// in sequence order so it reproduces the beam engine's per-chain
	// floating-point accumulation bit-for-bit.
	Weights map[fault.Class]float64
	// WallNS is total wall time spent executing this component's
	// experiments; MaxWallNS the slowest single experiment.
	WallNS    int64
	MaxWallNS int64
	// Mechanisms tallies the propagation-provenance verdicts of records
	// that carry one; MechRecords counts those records. For a provenance
	// campaign the mechanism tallies must partition Counts exactly —
	// cmd/tracestat enforces it.
	Mechanisms  map[fault.Mechanism]int
	MechRecords int
	// MechMismatch counts records whose mechanism verdict contradicts
	// their outcome class (or failed to parse) — always zero for a
	// healthy trace.
	MechMismatch int
	// Predicted counts records resolved by the ACE pre-filter without
	// simulation; PredMechanisms tallies their mechanism verdicts. A
	// predicted record must be ClassMasked with a valid mechanism —
	// PredBad counts violations (always zero for a healthy trace).
	Predicted      int
	PredMechanisms map[fault.Mechanism]int
	PredBad        int
	// Deduped counts records materialized from an equivalence-class
	// representative without simulation.
	Deduped int
}

// WorkloadSummary aggregates one workload's trace records.
type WorkloadSummary struct {
	Components map[fault.Component]*ComponentSummary
}

// KindSummary aggregates all records of one kind (injection, strike, or
// shard).
type KindSummary struct {
	Records   int
	Workloads map[string]*WorkloadSummary
	// Events tallies KindShard records by lifecycle event (claimed /
	// completed / requeued); empty for experiment kinds.
	Events map[string]int
}

// Summary is the recomputed view of a whole trace file.
type Summary struct {
	// Records is the total line count.
	Records int
	// ByKind splits the trace by record kind.
	ByKind map[string]*KindSummary
	// Workers counts simulated experiments per executing workbench id:
	// injection and strike records that ran on the simulator, so neither
	// predicted nor deduped ones, and never convergence or shard records.
	Workers map[int]int
	// Nodes counts records per fleet node (records without a node label —
	// in-process campaigns — land under "").
	Nodes map[string]int
	// Wall holds the wall duration (ns) of every experiment Workers
	// counts, sorted ascending — the source for latency quantiles.
	Wall []int64
	// Conv holds the KindConvergence records in sequence order; the last
	// record per (workload, comp, class) is each estimator's final state
	// (see LastConv).
	Conv []Record
}

// Kind returns the summary for one record kind, never nil.
func (s *Summary) Kind(kind string) *KindSummary {
	if k, ok := s.ByKind[kind]; ok {
		return k
	}
	return &KindSummary{Workloads: map[string]*WorkloadSummary{}, Events: map[string]int{}}
}

// Component returns the per-component tally for a kind, workload, and
// component, never nil.
func (s *Summary) Component(kind, workload string, comp fault.Component) *ComponentSummary {
	if w, ok := s.Kind(kind).Workloads[workload]; ok {
		if c, ok := w.Components[comp]; ok {
			return c
		}
	}
	return &ComponentSummary{
		Counts:         map[fault.Class]int{},
		Weights:        map[fault.Class]float64{},
		Mechanisms:     map[fault.Mechanism]int{},
		PredMechanisms: map[fault.Mechanism]int{},
	}
}

// LastConv returns each convergence estimator's final state: the
// highest-sequence KindConvergence record per (workload, comp, class),
// in canonical snapshot order.
func (s *Summary) LastConv() []ConvSnapshot {
	last := make(map[ConvKey]ConvSnapshot)
	var keys []ConvKey
	for _, rec := range s.Conv { // Conv is already sequence-sorted
		key := ConvKey{Workload: rec.Workload, Comp: rec.Comp, Class: rec.Class}
		if _, ok := last[key]; !ok {
			keys = append(keys, key)
		}
		last[key] = ConvSnapshot{
			ConvKey: key,
			K:       rec.K, N: rec.N, Planned: rec.Planned,
			Est: rec.Est, Margin: rec.Margin,
			Look: rec.Look, Met: rec.Met, Stopped: rec.Stopped,
		}
	}
	out := make([]ConvSnapshot, 0, len(keys))
	for _, k := range keys {
		out = append(out, last[k])
	}
	SortConvSnapshots(out)
	return out
}

// WallQuantile returns the q-th latency quantile (0..1) in nanoseconds.
func (s *Summary) WallQuantile(q float64) int64 {
	if len(s.Wall) == 0 {
		return 0
	}
	i := int(q * float64(len(s.Wall)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s.Wall) {
		i = len(s.Wall) - 1
	}
	return s.Wall[i]
}

// ReadSummary parses a JSONL trace and recomputes its aggregate
// statistics. Records are re-ordered by sequence number before weight
// accumulation, restoring each worker chain's execution order.
func ReadSummary(r io.Reader) (*Summary, error) {
	recs, err := ReadRecords(r)
	if err != nil {
		return nil, err
	}
	return Summarize(recs), nil
}

// ReadRecords parses every line of a JSONL trace.
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return recs, nil
}

// Summarize aggregates parsed records into a Summary.
func Summarize(recs []Record) *Summary {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	s := &Summary{
		ByKind:  make(map[string]*KindSummary),
		Workers: make(map[int]int),
		Nodes:   make(map[string]int),
	}
	for _, rec := range sorted {
		s.Records++
		s.Nodes[rec.Node]++
		if (rec.Kind == KindInjection || rec.Kind == KindStrike) && !rec.Predicted && !rec.Dedup {
			s.Workers[rec.Worker]++
			s.Wall = append(s.Wall, rec.WallNS)
		}
		k, ok := s.ByKind[rec.Kind]
		if !ok {
			k = &KindSummary{Workloads: make(map[string]*WorkloadSummary), Events: make(map[string]int)}
			s.ByKind[rec.Kind] = k
		}
		k.Records++
		if rec.Event != "" {
			k.Events[rec.Event]++
		}
		if rec.Kind == KindConvergence {
			s.Conv = append(s.Conv, rec)
		}
		w, ok := k.Workloads[rec.Workload]
		if !ok {
			w = &WorkloadSummary{Components: make(map[fault.Component]*ComponentSummary)}
			k.Workloads[rec.Workload] = w
		}
		c, ok := w.Components[rec.Comp]
		if !ok {
			c = &ComponentSummary{
				Counts:         make(map[fault.Class]int),
				Weights:        make(map[fault.Class]float64),
				Mechanisms:     make(map[fault.Mechanism]int),
				PredMechanisms: make(map[fault.Mechanism]int),
			}
			w.Components[rec.Comp] = c
		}
		c.Records++
		c.Counts[rec.Class]++
		if rec.Predicted {
			c.Predicted++
			if m, ok := fault.MechanismByName(rec.Mechanism); ok && m.Masking() && rec.Class == fault.ClassMasked {
				c.PredMechanisms[m]++
			} else {
				c.PredBad++
			}
		}
		if rec.Dedup {
			c.Deduped++
		}
		if rec.Mechanism != "" {
			c.MechRecords++
			if m, ok := fault.MechanismByName(rec.Mechanism); ok {
				c.Mechanisms[m]++
				if !m.Matches(rec.Class) {
					c.MechMismatch++
				}
			} else {
				c.MechMismatch++
			}
		}
		if rec.Weight != 0 && rec.Class != fault.ClassMasked {
			c.Weights[rec.Class] += rec.Weight
		}
		c.WallNS += rec.WallNS
		if rec.WallNS > c.MaxWallNS {
			c.MaxWallNS = rec.WallNS
		}
	}
	sort.Slice(s.Wall, func(i, j int) bool { return s.Wall[i] < s.Wall[j] })
	return s
}

// ModeledEvents recomputes a workload's per-class weighted event counts
// from a strike trace, merging components in the beam engine's canonical
// order so the sums are bit-identical to Result.ModeledEvents.
func (s *Summary) ModeledEvents(workload string) map[fault.Class]float64 {
	out := make(map[fault.Class]float64, fault.NumClasses)
	for _, comp := range fault.Components() {
		c := s.Component(KindStrike, workload, comp)
		for _, cls := range fault.Classes() {
			if v, ok := c.Weights[cls]; ok {
				out[cls] += v
			}
		}
	}
	return out
}
