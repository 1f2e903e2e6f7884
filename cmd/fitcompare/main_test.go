package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armsefi/internal/core/beam"
	"armsefi/internal/core/gefin"
)

func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	err := run([]string{"-workloads", "crc32", "-faults", "2", "-hours", "0.5",
		"-seed", "3", "-quiet", "-json", path}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []string{"Figure 3:", "Figure 4:", "Figure 6:", "Figure 10:", "Table IV:"} {
		if !strings.Contains(out.String(), head) {
			t.Errorf("report lacks %q:\n%s", head, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Beam      *beam.Result
		Injection *gefin.Result
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Beam.Workloads) != 1 || len(res.Injection.Workloads) != 1 {
		t.Errorf("JSON holds %d beam and %d injection workloads", len(res.Beam.Workloads), len(res.Injection.Workloads))
	}
}

func TestRunRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"-workloads", "nosuch"}, `unknown workload "nosuch"`},
	} {
		args := append(c.args, "-faults", "1", "-hours", "0.1", "-quiet")
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("fitcompare %v: error %v, want %q", args, err, c.want)
		}
	}
}
