package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
	"armsefi/internal/serve"
)

// campaign runs a tiny traced injection campaign and returns its JSONL
// trace and Result.
func campaign(t *testing.T) ([]byte, *gefin.Result) {
	t.Helper()
	spec, _ := bench.ByName("crc32")
	var trace bytes.Buffer
	o := obs.New(obs.Options{TraceWriter: &trace})
	res, err := gefin.Run(gefin.Config{
		FaultsPerComponent: 4, Seed: 3, Workers: 1,
		Components: []fault.Component{fault.CompL1D, fault.CompDTLB}, Obs: o,
	}, []bench.Spec{spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	return trace.Bytes(), res
}

// files writes the trace and the Result export where tracestat reads
// them from.
func files(t *testing.T, trace []byte, res *gefin.Result) (tracePath, resPath string) {
	t.Helper()
	dir := t.TempDir()
	tracePath, resPath = filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "result.json")
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return tracePath, resPath
}

// TestMatchingTraceExitsZero: a trace and the Result of the same
// campaign agree.
func TestMatchingTraceExitsZero(t *testing.T) {
	trace, res := campaign(t)
	tracePath, resPath := files(t, trace, res)
	if err := run([]string{"-quiet", "-against", resPath, tracePath}, io.Discard, io.Discard); err != nil {
		t.Fatalf("matching trace and Result: %v", err)
	}
}

// TestMergesSeveralTraces: a campaign's trace split over two files (as
// two nodes write it) is read as one and still agrees with the Result;
// either file alone does not.
func TestMergesSeveralTraces(t *testing.T) {
	trace, res := campaign(t)
	var node [2]strings.Builder // records dealt alternately, as two nodes interleave
	for i, line := range strings.SplitAfter(string(trace), "\n") {
		node[i%2].WriteString(line)
	}
	firstPath, resPath := files(t, []byte(node[0].String()), res)
	secondPath := filepath.Join(t.TempDir(), "node-b.jsonl")
	if err := os.WriteFile(secondPath, []byte(node[1].String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quiet", "-against", resPath, firstPath, secondPath}, io.Discard, io.Discard); err != nil {
		t.Fatalf("two halves of one trace: %v", err)
	}
	if err := run([]string{"-quiet", "-against", resPath, firstPath}, io.Discard, io.Discard); err == nil {
		t.Error("half a trace agrees with the whole campaign's Result")
	}
}

// TestCountMismatchFails: a Result with one more Masked outcome than the
// trace records fails on both the record count and the class count.
func TestCountMismatchFails(t *testing.T) {
	trace, res := campaign(t)
	res.Workloads[0].Components[0].N++
	res.Workloads[0].Components[0].Counts[fault.ClassMasked]++
	tracePath, resPath := files(t, trace, res)
	err := run([]string{"-quiet", "-against", resPath, tracePath}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2 verification failure(s)") {
		t.Fatalf("count mismatch: err %v, want 2 verification failures", err)
	}
}

// TestMalformedLineReportsLineNumber: a broken JSONL line fails the run
// and the error names it.
func TestMalformedLineReportsLineNumber(t *testing.T) {
	trace, res := campaign(t)
	lines := strings.SplitAfter(string(trace), "\n")
	lines[2] = "{\"kind\": broken\n"
	tracePath, resPath := files(t, []byte(strings.Join(lines, "")), res)
	err := run([]string{"-quiet", "-against", resPath, tracePath}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "trace line 3") {
		t.Fatalf("malformed line: err %v, want it to name trace line 3", err)
	}
}

// provTrace runs a tiny provenance-traced, pre-filtered injection
// campaign and writes its JSONL trace to a file.
func provTrace(t *testing.T) string {
	t.Helper()
	spec, _ := bench.ByName("crc32")
	var trace bytes.Buffer
	o := obs.New(obs.Options{TraceWriter: &trace})
	if _, err := gefin.Run(gefin.Config{
		FaultsPerComponent: 6, Seed: 5, Workers: 1, Provenance: true, Prune: true,
		Components: []fault.Component{fault.CompL1D, fault.CompRegFile}, Obs: o,
	}, []bench.Spec{spec}, nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportsProvenanceTrace: a provenance trace yields the mechanism
// table and the pre-filter split on stdout, and a JSON export whose rows
// account for every planned injection.
func TestReportsProvenanceTrace(t *testing.T) {
	tracePath := provTrace(t)
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-json", jsonPath, tracePath}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"Masking mechanisms — crc32",
		"Campaign split: predicted vs deduped vs simulated — crc32",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []componentReport
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	records := map[fault.Component]int{}
	for _, r := range rows {
		if r.Workload != "crc32" {
			t.Errorf("row for workload %q", r.Workload)
		}
		sum := 0
		for _, n := range r.Mechanisms {
			sum += n
		}
		if sum != r.Records {
			t.Errorf("%v: mechanisms sum to %d of %d records", r.Comp, sum, r.Records)
		}
		records[r.Comp] = r.Records
	}
	for _, c := range []fault.Component{fault.CompL1D, fault.CompRegFile} {
		if records[c] != 6 {
			t.Errorf("%v: %d records, want the 6 planned", c, records[c])
		}
	}

	// -workload restricts the report to one workload; a workload absent
	// from the trace is an error.
	stdout.Reset()
	if err := run([]string{"-workload", "qsort", tracePath}, &stdout, &stderr); err == nil {
		t.Errorf("a workload absent from the trace reported:\n%s", stdout.String())
	}
}

// TestRejectsBadInput: missing arguments, unknown flags, unreadable and
// malformed inputs, an absent -workload and mismatched remote flags are
// errors, never a report; a trace without provenance fails under
// -require-prov with a verdict naming what is missing.
func TestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := write("plain.jsonl", `{"kind":"injection","seq":0,"workload":"crc32","comp":"l1d","bit":1,"cycle":2,"outcome":"poweroff","class":"Masked"}`+"\n")
	for _, tc := range []struct {
		name string
		args []string
		want string
		// prints is what stdout must carry; empty means nothing at all.
		prints string
	}{
		{"no trace", nil, "usage", ""},
		{"unknown flag", []string{"-bogus", plain}, "bogus", ""},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, "absent.jsonl", ""},
		{"missing result", []string{"-against", filepath.Join(dir, "absent.json"), plain}, "absent.json", ""},
		{"malformed line", []string{write("bad.jsonl", "{\"kind\":\n")}, "line 1", ""},
		{"absent workload", []string{"-workload", "qsort", plain}, `"qsort"`, ""},
		{"campaign without remote", []string{"-campaign", "c1"}, "-remote", ""},
		{"remote with trace files", []string{"-remote", "http://127.0.0.1:1", "-campaign", "c1", plain}, "trace files", ""},
		{"no provenance", []string{"-require-prov", "-quiet", plain}, "verification failure",
			"MISMATCH crc32/l1d: no record carries a mechanism verdict"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%s: accepted, printed %q", tc.name, stdout.String())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if tc.prints == "" && stdout.Len() != 0 {
			t.Errorf("%s: printed a report on error: %q", tc.name, stdout.String())
		}
		if !strings.Contains(stdout.String(), tc.prints) {
			t.Errorf("%s: stdout %q lacks %q", tc.name, stdout.String(), tc.prints)
		}
	}

	// Without -require-prov the same trace is a plain class report.
	var stdout bytes.Buffer
	if err := run([]string{plain}, &stdout, io.Discard); err != nil || !strings.Contains(stdout.String(), "injection records: 1") {
		t.Errorf("plain trace: err %v, report:\n%s", err, stdout.String())
	}
}

// fakeCoord is an httptest stand-in for campaignd's read endpoints: a
// mutable CampaignStatus + ConvView pair served at the paths the client
// polls, counting polls so the follow loop's exit conditions can be
// pinned deterministically.
type fakeCoord struct {
	mu    sync.Mutex
	st    serve.CampaignStatus
	cv    serve.ConvView
	polls int
	// onPoll mutates the served state before each convergence response —
	// the test's way of flipping a campaign to converged mid-follow.
	onPoll func(n int, st *serve.CampaignStatus, cv *serve.ConvView)
	// trace and result are the merged fleet trace and the assembled
	// Result; fetches counts the requests for either.
	trace, result []byte
	fetches       int
}

func (f *fakeCoord) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		json.NewEncoder(w).Encode([]*serve.CampaignStatus{&f.st})
	})
	mux.HandleFunc("/api/v1/campaigns/"+f.st.ID, func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		json.NewEncoder(w).Encode(&f.st)
	})
	mux.HandleFunc("/api/v1/campaigns/"+f.st.ID+"/convergence", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.polls++
		if f.onPoll != nil {
			f.onPoll(f.polls, &f.st, &f.cv)
		}
		json.NewEncoder(w).Encode(&f.cv)
	})
	for path, body := range map[string]*[]byte{"/trace": &f.trace, "/results": &f.result} {
		mux.HandleFunc("/api/v1/campaigns/"+f.st.ID+path, func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.fetches++
			w.Write(*body)
		})
	}
	return mux
}

func snapshot(workload string, comp fault.Component, class fault.Class, k, n int, margin float64, met bool) obs.ConvSnapshot {
	return obs.ConvSnapshot{
		ConvKey: obs.ConvKey{Workload: workload, Comp: comp, Class: class},
		K:       k, N: n, Planned: n,
		Est: float64(k) / float64(n), Margin: margin, Look: 1, Met: met,
	}
}

func runningFake() *fakeCoord {
	return &fakeCoord{
		st: serve.CampaignStatus{
			ID: "c1", Kind: "injection", State: serve.StateRunning,
			ShardsDone: 1, ShardsTotal: 4, ItemsDone: 50, ItemsTotal: 200,
		},
		cv: serve.ConvView{
			Campaign: "c1", TargetMargin: 0.05, Confidence: 0.99, Nodes: 2,
			Estimators: []obs.ConvSnapshot{
				snapshot("crc32", fault.CompRegFile, fault.ClassMasked, 40, 50, 0.12, false),
			},
		},
	}
}

// completeFake serves a complete campaign whose merged trace and Result
// come from one real campaign.
func completeFake(t *testing.T) (*fakeCoord, *gefin.Result) {
	t.Helper()
	trace, res := campaign(t)
	f := runningFake()
	f.st.State, f.st.ShardsDone, f.st.ItemsDone = serve.StateComplete, 4, 200
	f.trace = trace
	var err error
	if f.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	return f, res
}

// TestList pins the campaign listing (no -campaign): one line per
// campaign plus the usage hint, and the empty-store message.
func TestList(t *testing.T) {
	f := runningFake()
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if err := run([]string{"-remote", srv.URL}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"c1", "injection", "running", "1/4 shards", "50/200 items",
		"tracestat -remote " + srv.URL + " -campaign ID"} {
		if !strings.Contains(got, want) {
			t.Errorf("listing missing %q:\n%s", want, got)
		}
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "[]")
	}))
	defer empty.Close()
	out.Reset()
	if err := list(&serve.Client{Base: empty.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no campaigns") {
		t.Errorf("empty listing = %q", out.String())
	}
}

// TestWatchRendersTable pins one non-follow poll: the title line with
// shard/item progress and node count, the target-margin line, and the
// estimator table with the running fraction.
func TestWatchRendersTable(t *testing.T) {
	f := runningFake()
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if _, err := watch(&serve.Client{Base: srv.URL}, "c1", false, 0, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"campaign c1 [injection, running]",
		"1/4 shards, 50/200 items",
		"merged from 2 node(s)",
		"target ±0.05 at 99% confidence",
		"crc32",
		"0.800", // 40/50 running fraction in the table
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "ALL MET") {
		t.Errorf("unconverged view rendered ALL MET:\n%s", got)
	}
	if f.polls != 1 {
		t.Errorf("non-follow watch polled %d times, want 1", f.polls)
	}
}

// TestWatchNoTelemetry pins the placeholder when no tallies arrived yet.
func TestWatchNoTelemetry(t *testing.T) {
	f := runningFake()
	f.cv.Estimators = nil
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if _, err := watch(&serve.Client{Base: srv.URL}, "c1", false, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no convergence telemetry yet") {
		t.Errorf("missing placeholder:\n%s", out.String())
	}
}

// TestFollowExitsOnAllMet pins the follow loop's convergence exit: the
// campaign stays running, but once the view reports every estimator met,
// the loop renders the ALL MET banner and returns instead of polling on.
func TestFollowExitsOnAllMet(t *testing.T) {
	f := runningFake()
	f.onPoll = func(n int, st *serve.CampaignStatus, cv *serve.ConvView) {
		if n >= 3 {
			cv.AllMet = true
			cv.Estimators[0].Margin = 0.04
			cv.Estimators[0].Met = true
		}
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if _, err := watch(&serve.Client{Base: srv.URL}, "c1", true, time.Millisecond, &out); err != nil {
		t.Fatal(err)
	}
	if f.polls != 3 {
		t.Errorf("follow polled %d times, want 3 (exit on the ALL MET poll)", f.polls)
	}
	got := out.String()
	if !strings.Contains(got, "ALL MET") || !strings.Contains(got, "every estimator meets the target margin") {
		t.Errorf("converged follow missing ALL MET banner:\n%s", got)
	}
}

// TestFollowExitsOnComplete pins the follow loop's completion exit.
func TestFollowExitsOnComplete(t *testing.T) {
	f := runningFake()
	f.onPoll = func(n int, st *serve.CampaignStatus, cv *serve.ConvView) {
		if n >= 2 {
			st.State = serve.StateComplete
			st.ShardsDone, st.ItemsDone = 4, 200
		}
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if _, err := watch(&serve.Client{Base: srv.URL}, "c1", true, time.Millisecond, &out); err != nil {
		t.Fatal(err)
	}
	// Status is fetched before convergence, so the flip lands on poll 2's
	// status read only after poll 2's convergence bump — one more loop.
	if !strings.Contains(out.String(), "complete") {
		t.Errorf("follow never rendered the complete state:\n%s", out.String())
	}
	if f.polls > 3 {
		t.Errorf("follow polled %d times after completion", f.polls)
	}
}

// TestRemoteRunningSkipsCrossCheck: a campaign still running gets its
// convergence view and nothing else — its trace and Result are not
// fetched, and the run succeeds.
func TestRemoteRunningSkipsCrossCheck(t *testing.T) {
	f := runningFake()
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if err := run([]string{"-remote", srv.URL, "-campaign", "c1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "campaign c1 [injection, running]") || !strings.Contains(got, "merged from 2 node(s)") {
		t.Errorf("running campaign view missing:\n%s", got)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fetches != 0 || strings.Contains(got, "OK:") {
		t.Errorf("running campaign was cross-checked (%d fetches):\n%s", f.fetches, got)
	}
}

// TestRemoteCompleteCrossChecks: a complete campaign gets its view, then
// its merged trace is verified against its Result — directly, and after
// -follow sees it complete. A Result the trace disagrees with fails.
func TestRemoteCompleteCrossChecks(t *testing.T) {
	f, res := completeFake(t)
	srv := httptest.NewServer(f.handler())
	defer srv.Close()
	var out strings.Builder
	if err := run([]string{"-remote", srv.URL, "-campaign", "c1"}, &out, io.Discard); err != nil {
		t.Fatalf("complete campaign: %v\n%s", err, out.String())
	}
	got := out.String()
	view := strings.Index(got, "campaign c1 [injection, complete]")
	table := strings.Index(got, "injection records: 8")
	ok := strings.Index(got, "OK: trace agrees with injection result remote campaign c1")
	if view < 0 || table < view || ok < table {
		t.Errorf("want the view, then the trace tables, then the verdict:\n%s", got)
	}

	f.mu.Lock()
	f.st.State, f.polls = serve.StateRunning, 0
	f.onPoll = func(n int, st *serve.CampaignStatus, cv *serve.ConvView) {
		if n >= 2 {
			st.State = serve.StateComplete
		}
	}
	f.mu.Unlock()
	out.Reset()
	in := inspection{quiet: true}
	if err := in.remote(&serve.Client{Base: srv.URL}, "c1", true, time.Millisecond, &out); err != nil {
		t.Fatalf("follow to completion: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK: trace agrees") {
		t.Errorf("follow to completion skipped the cross-check:\n%s", out.String())
	}

	res.Workloads[0].Components[0].Counts[fault.ClassMasked]++
	f.mu.Lock()
	f.result, _ = json.Marshal(res)
	f.mu.Unlock()
	out.Reset()
	err := run([]string{"-quiet", "-remote", srv.URL, "-campaign", "c1"}, &out, io.Discard)
	if err == nil || !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("disagreeing Result: err %v\n%s", err, out.String())
	}
}
