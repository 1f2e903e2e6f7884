package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armsefi/internal/core/gefin"
	"armsefi/internal/core/sched"
)

func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	err := run([]string{"-workloads", "crc32", "-components", "l1d", "-faults", "2",
		"-seed", "3", "-quiet", "-json", path}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []string{"Figure 4:", "Figure 5:", "Table IV:"} {
		if !strings.Contains(out.String(), head) {
			t.Errorf("report lacks %q:\n%s", head, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res gefin.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 1 || res.Workloads[0].Workload != "crc32" {
		t.Errorf("JSON result holds %+v", res.Workloads)
	}
}

func TestRunRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"-model", "rtl"}, `unknown model "rtl"`},
		{[]string{"-workloads", "nosuch"}, `unknown workload "nosuch"`},
		{[]string{"-workloads", "crc32,crc32"}, `"crc32" listed twice`},
		{[]string{"-components", "l3"}, `unknown component "l3"`},
		{[]string{"-exhaustive", "-remote", "http://127.0.0.1:1"}, "-exhaustive runs locally only"},
	} {
		args := append(c.args, "-faults", "1", "-quiet")
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("gefin %v: error %v, want %q", args, err, c.want)
		}
	}
}

// TestRunRejectsInvalidSizes pins that a negative sample size is refused
// as an invalid configuration (exit status 2) before any campaign runs,
// locally or remote.
func TestRunRejectsInvalidSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "-1"},
		{"-faults", "-1", "-remote", "http://127.0.0.1:1"},
	} {
		err := run(append(args, "-workloads", "crc32", "-quiet"), io.Discard, io.Discard)
		if !errors.Is(err, sched.ErrConfig) || !strings.Contains(err.Error(), "-1 faults per component") {
			t.Errorf("gefin %v: error %v, want an invalid configuration", args, err)
		}
	}
}
