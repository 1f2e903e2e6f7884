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
	if err := run([]string{"-quiet", "-against", resPath, tracePath}); err != nil {
		t.Fatalf("matching trace and Result: %v", err)
	}
}

// TestCountMismatchFails: a Result with one more Masked outcome than the
// trace records fails on both the record count and the class count.
func TestCountMismatchFails(t *testing.T) {
	trace, res := campaign(t)
	res.Workloads[0].Components[0].N++
	res.Workloads[0].Components[0].Counts[fault.ClassMasked]++
	tracePath, resPath := files(t, trace, res)
	err := run([]string{"-quiet", "-against", resPath, tracePath})
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
	err := run([]string{"-quiet", "-against", resPath, tracePath})
	if err == nil || !strings.Contains(err.Error(), "trace line 3") {
		t.Fatalf("malformed line: err %v, want it to name trace line 3", err)
	}
}
