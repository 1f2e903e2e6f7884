package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"armsefi/internal/core/fault"
	"armsefi/internal/core/sched"
)

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", "k", "v")
	b := r.Counter("x_total", "help", "k", "v")
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	if c := r.Counter("x_total", "help", "k", "w"); c == a {
		t.Error("different labels must return a different counter")
	}
	if g := r.Gauge("x_total", "help"); g == nil {
		t.Error("gauges and counters live in separate namespaces")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	g := r.Gauge("g", "")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %f", g.Value())
	}
	g.SetFunc(func() float64 { return 7 })
	if g.Value() != 7 {
		t.Error("gauge callback not consulted")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("sum = %f", h.Sum())
	}
	// le is inclusive: 0.5 and 1 land in le=1, 5 in le=10, 100 in +Inf.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 2`,
		`h_seconds_bucket{le="10"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_sum 106.5`,
		`h_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("armsefi_outcomes_total", "outcomes", "class", "SDC").Add(3)
	r.Gauge("armsefi_campaign_done", "done").Set(12)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP armsefi_outcomes_total outcomes",
		"# TYPE armsefi_outcomes_total counter",
		`armsefi_outcomes_total{class="SDC"} 3`,
		"# TYPE armsefi_campaign_done gauge",
		"armsefi_campaign_done 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSONParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "k", "v").Inc()
	r.Gauge("g", "").Set(1.5)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if m[`c_total{k="v"}`] != 1.0 {
		t.Errorf("counter missing from JSON: %v", m)
	}
	h, ok := m["h"].(map[string]any)
	if !ok || h["count"] != 1.0 {
		t.Errorf("histogram missing from JSON: %v", m)
	}
}

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				tr.Emit(&Record{Kind: KindInjection, Workload: "crc32",
					Comp: fault.CompL1D, Worker: g, Class: fault.ClassMasked})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Emitted() != n {
		t.Errorf("emitted = %d", tr.Emitted())
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	seen := make(map[int64]bool, n)
	for _, rec := range recs {
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Emit(&Record{})
	if err := tr.Flush(); err != nil || tr.Emitted() != 0 {
		t.Error("nil tracer must be a silent no-op")
	}
	var o *Observer
	if o.On() || o.Tracing() || o.Registry() != nil {
		t.Error("nil observer must report off")
	}
	o.Record(Record{}, time.Time{}, time.Time{})
	o.MeterTick(sched.Snapshot{})
	o.ObservePool(sched.NewPool(1))
	o.CloneTry(true)
	if err := o.Close(); err != nil {
		t.Error("nil observer Close must succeed")
	}
}

func TestObserverRecord(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{TraceWriter: &buf})
	if !o.On() || !o.Tracing() {
		t.Fatal("observer with trace writer must be on and tracing")
	}
	start := time.Now()
	o.Record(Record{Kind: KindInjection, Workload: "crc32", Comp: fault.CompL1D,
		Class: fault.ClassSDC, Outcome: "ok"}, start, start.Add(3*time.Millisecond))
	o.CloneTry(true)
	o.CloneTry(false)
	o.MeterTick(sched.Snapshot{Done: 1, Total: 10, Workers: 2, Rate: 4})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("trace has %d records", len(recs))
	}
	if recs[0].WallNS != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("wall = %d ns", recs[0].WallNS)
	}
	if recs[0].Class != fault.ClassSDC || recs[0].Comp != fault.CompL1D {
		t.Errorf("record = %+v", recs[0])
	}

	reg := o.Registry()
	if v := reg.Counter("armsefi_outcomes_total", "",
		"kind", KindInjection, "class", "SDC", "comp", "l1d").Value(); v != 1 {
		t.Errorf("outcome counter = %d", v)
	}
	if v := reg.Counter("armsefi_clone_acquires_total", "", "result", "granted").Value(); v != 1 {
		t.Errorf("granted = %d", v)
	}
	if v := reg.Counter("armsefi_clone_acquires_total", "", "result", "denied").Value(); v != 1 {
		t.Errorf("denied = %d", v)
	}
	if v := reg.Gauge("armsefi_campaign_done", "").Value(); v != 1 {
		t.Errorf("done gauge = %f", v)
	}
	if h := reg.Histogram("armsefi_experiment_wall_seconds", "", nil, "kind", KindInjection); h.Count() != 1 {
		t.Errorf("latency histogram count = %d", h.Count())
	}
}

func TestObservePool(t *testing.T) {
	o := New(Options{})
	p := sched.NewPool(3)
	o.ObservePool(p)
	p.Acquire()
	p.Acquire()
	reg := o.Registry()
	if v := reg.Gauge("armsefi_pool_in_use", "").Value(); v != 2 {
		t.Errorf("in-use gauge = %f", v)
	}
	if v := reg.Gauge("armsefi_pool_capacity", "").Value(); v != 3 {
		t.Errorf("capacity gauge = %f", v)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "c_total 1") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 {
		t.Errorf("/debug/vars: %d", code)
	} else {
		var m map[string]any
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Errorf("/debug/vars not JSON: %v", err)
		}
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/"); code != 200 {
		t.Errorf("/: %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope: %d, want 404", code)
	}
}

func TestServeAndClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{Kind: KindStrike, Seq: 2, Workload: "w", Comp: fault.CompL1D,
			Class: fault.ClassSDC, Weight: 0.5, WallNS: 30, Worker: 1},
		{Kind: KindStrike, Seq: 0, Workload: "w", Comp: fault.CompL1D,
			Class: fault.ClassSDC, Weight: 0.25, WallNS: 10, Worker: 0},
		{Kind: KindStrike, Seq: 1, Workload: "w", Comp: fault.CompL1D,
			Class: fault.ClassMasked, Weight: 1, WallNS: 20, Worker: 0},
	}
	s := Summarize(recs)
	if s.Records != 3 {
		t.Errorf("records = %d", s.Records)
	}
	c := s.Component(KindStrike, "w", fault.CompL1D)
	if c.Records != 3 || c.Counts[fault.ClassSDC] != 2 || c.Counts[fault.ClassMasked] != 1 {
		t.Errorf("component summary = %+v", c)
	}
	// Masked strikes never contribute weight; SDC weights accumulate in
	// seq order (0.25 then 0.5).
	if c.Weights[fault.ClassSDC] != 0.75 {
		t.Errorf("SDC weight = %f", c.Weights[fault.ClassSDC])
	}
	if _, ok := c.Weights[fault.ClassMasked]; ok {
		t.Error("masked strikes must not accumulate weight")
	}
	if c.WallNS != 60 || c.MaxWallNS != 30 {
		t.Errorf("wall = %d max %d", c.WallNS, c.MaxWallNS)
	}
	if s.Workers[0] != 2 || s.Workers[1] != 1 {
		t.Errorf("workers = %v", s.Workers)
	}
	if s.WallQuantile(0) != 10 || s.WallQuantile(0.5) != 20 || s.WallQuantile(1) != 30 {
		t.Errorf("quantiles = %d %d %d", s.WallQuantile(0), s.WallQuantile(0.5), s.WallQuantile(1))
	}
	me := s.ModeledEvents("w")
	if me[fault.ClassSDC] != 0.75 || me[fault.ClassMasked] != 0 {
		t.Errorf("modeled events = %v", me)
	}
	// Accessors on missing keys must be usable, never nil.
	if s.Component(KindInjection, "nope", fault.CompL2).Records != 0 {
		t.Error("missing component summary must be empty")
	}
	if s.Kind("nope").Records != 0 {
		t.Error("missing kind summary must be empty")
	}
}

// TestSummarizeExperimentStatsCountSimulatedOnly: the worker tally and
// the wall-time quantiles describe experiments that ran on the
// simulator. Predicted and deduped slots, convergence estimates and
// shard events carry no execution (wall 0), so counting them would
// skew the quantiles to 0 and credit their worker with runs it never did.
func TestSummarizeExperimentStatsCountSimulatedOnly(t *testing.T) {
	recs := []Record{
		{Kind: KindInjection, Seq: 0, Workload: "w", Comp: fault.CompL1D, Class: fault.ClassSDC, WallNS: 40, Worker: 1},
		{Kind: KindInjection, Seq: 1, Workload: "w", Comp: fault.CompL1D, Class: fault.ClassMasked,
			Mechanism: "never-read", Predicted: true, Worker: 0},
		{Kind: KindInjection, Seq: 2, Workload: "w", Comp: fault.CompL1D, Class: fault.ClassMasked, Dedup: true, Worker: 0},
		{Kind: KindStrike, Seq: 3, Workload: "w", Comp: fault.CompL2, Class: fault.ClassMasked, WallNS: 20, Worker: 0},
		{Kind: KindConvergence, Seq: 4, Workload: "w", Comp: fault.CompL1D, Class: fault.ClassMasked, Worker: 0},
		{Kind: KindShard, Seq: 5, Event: "completed", WallNS: 90, Worker: 0},
	}
	s := Summarize(recs)
	if s.Records != 6 {
		t.Errorf("records = %d, want every line", s.Records)
	}
	if len(s.Workers) != 2 || s.Workers[0] != 1 || s.Workers[1] != 1 {
		t.Errorf("workers = %v, want one simulated experiment each on w0 and w1", s.Workers)
	}
	if len(s.Wall) != 2 || s.WallQuantile(0) != 20 || s.WallQuantile(1) != 40 {
		t.Errorf("wall = %v, want the two simulated experiments' [20 40]", s.Wall)
	}
}

func TestReadSummaryRejectsGarbage(t *testing.T) {
	if _, err := ReadSummary(strings.NewReader("{\"kind\":\"injection\"}\nnot json\n")); err == nil {
		t.Error("garbage line must fail")
	}
	s, err := ReadSummary(strings.NewReader(""))
	if err != nil || s.Records != 0 {
		t.Errorf("empty trace: %v, %d records", err, s.Records)
	}
}
