package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
		{[]string{"-addr", "127.0.0.1:0"}, "coordinator mode needs -store DIR"},
	} {
		err := run(context.Background(), c.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestCoordinatorServesAndDrains starts a coordinator on a temporary
// store and an ephemeral port, reads the fleet feed from the address its
// "serving on" line names, and requires a clean return once the context
// is cancelled.
func TestCoordinatorServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-store", filepath.Join(t.TempDir(), "store"), "-addr", "127.0.0.1:0"}, io.Discard, pw)
		pw.Close()
	}()

	lines := bufio.NewScanner(pr)
	var addr string
	for addr == "" && lines.Scan() {
		if _, rest, ok := strings.Cut(lines.Text(), "serving on "); ok {
			addr, _, _ = strings.Cut(rest, ",")
		}
	}
	if addr == "" {
		t.Fatalf("no serving line (scan error %v, run returned %v)", lines.Err(), <-done)
	}
	go io.Copy(io.Discard, pr) // keep the drain line from blocking run

	resp, err := http.Get("http://" + addr + "/api/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleet map[string]any
	err = json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("GET /api/v1/fleet: status %d, decode error %v", resp.StatusCode, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
