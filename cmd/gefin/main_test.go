package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armsefi/internal/core/gefin"
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
