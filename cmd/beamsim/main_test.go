package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armsefi/internal/core/beam"
	"armsefi/internal/serve"
)

// runJSON runs beamsim with args plus -json and returns its report and
// decoded Result.
func runJSON(t *testing.T, args ...string) (string, *beam.Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	if err := run(append(args, "-quiet", "-json", path), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res beam.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	return out.String(), &res
}

func TestRunReport(t *testing.T) {
	out, res := runJSON(t, "-workloads", "crc32", "-hours", "0.5", "-seed", "3")
	if !strings.Contains(out, "Figure 3:") {
		t.Errorf("report lacks Figure 3:\n%s", out)
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
		{[]string{"-workloads", "nosuch"}, `unknown workload "nosuch"`},
		{[]string{"-workloads", "crc32,crc32"}, `"crc32" listed twice`},
		{[]string{"-fitraw", "-remote", "http://127.0.0.1:1"}, "-fitraw runs locally only"},
	} {
		args := append(c.args, "-hours", "0.1", "-quiet")
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("beamsim %v: error %v, want %q", args, err, c.want)
		}
	}
}

// TestRemoteMatchesLocal submits a stopped beam campaign to a campaign
// service over HTTP, executed by an in-process worker, and checks that
// its Workloads and stop summary are byte-identical to a local run's.
func TestRemoteMatchesLocal(t *testing.T) {
	store, err := serve.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := serve.NewCoordinator(serve.CoordConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.Handler(coord, nil))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve.RunWorker(ctx, serve.WorkerConfig{Node: "n", Source: coord, PollInterval: 10 * time.Millisecond})
	}()
	defer func() { cancel(); <-done }()

	args := []string{"-workloads", "crc32", "-hours", "0.5", "-seed", "5", "-target-margin", "0.3"}
	_, local := runJSON(t, args...)
	_, remote := runJSON(t, append(args, "-remote", srv.URL)...)
	if local.Stop == nil {
		t.Fatal("local run has no stop summary")
	}
	for _, part := range []struct {
		name          string
		local, remote any
	}{
		{"Workloads", local.Workloads, remote.Workloads},
		{"Stop", local.Stop, remote.Stop},
	} {
		l, _ := json.Marshal(part.local)
		r, _ := json.Marshal(part.remote)
		if string(l) != string(r) {
			t.Errorf("%s differ:\n local  %s\n remote %s", part.name, l, r)
		}
	}
}
