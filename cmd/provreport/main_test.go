package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
	"armsefi/internal/obs"
)

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

	// -workload restricts the report to one workload; another name finds
	// no provenance rows at all.
	stdout.Reset()
	if err := run([]string{"-workload", "qsort", tracePath}, &stdout, &stderr); err == nil {
		t.Errorf("a workload absent from the trace reported:\n%s", stdout.String())
	}
}

// TestRejectsBadInput: missing arguments, unknown flags, unreadable and
// malformed traces, and traces without provenance fields are errors,
// never a report.
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
	}{
		{"no trace", nil, "usage"},
		{"two traces", []string{plain, plain}, "usage"},
		{"unknown flag", []string{"-bogus", plain}, "bogus"},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, "absent.jsonl"},
		{"malformed line", []string{write("bad.jsonl", "{\"kind\":\n")}, "line 1"},
		{"no provenance", []string{plain}, "no provenance"},
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
		if stdout.Len() != 0 {
			t.Errorf("%s: printed a report on error: %q", tc.name, stdout.String())
		}
	}
}
