package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOut is go test -bench output with two -count repeats per
// benchmark, GOMAXPROCS suffixes, and a custom metric column.
const benchOut = `goos: linux
goarch: amd64
pkg: armsefi
BenchmarkCampaign/plain-8         	       2	 900000000 ns/op	  5000 B/op	   40 allocs/op
BenchmarkCampaign/plain-8         	       2	 800000000 ns/op	  5000 B/op	   60 allocs/op
BenchmarkCampaign/checkpointed-8  	       2	 210000000 ns/op	  4000 B/op	   10 allocs/op
BenchmarkCampaign/checkpointed-8  	       2	 200000000 ns/op	  4000 B/op	   30 allocs/op
BenchmarkCycleLoop-8              	  100000	        12 ns/op	     0 B/op	    0 allocs/op
BenchmarkPruned/with-dash-8       	       1	 100 ns/op	 0.61 predicted-frac
BenchmarkPruned/with-dash-8       	       1	 120 ns/op	 0.58 predicted-frac
PASS
`

func TestParseBenchStripsSuffixAndFoldsRepeats(t *testing.T) {
	res, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkCampaign/plain", "BenchmarkCampaign/checkpointed", "BenchmarkCycleLoop", "BenchmarkPruned/with-dash"} {
		if _, ok := res[name]; !ok {
			t.Errorf("%s missing after -GOMAXPROCS suffix strip; parsed %v", name, res)
		}
	}
	plain := res["BenchmarkCampaign/plain"]
	if plain.nsPerOp != 800000000 || plain.allocs != 60 || !plain.hasAlloc {
		t.Errorf("plain: ns/op %v allocs %v, want fastest 8e8 and worst 60", plain.nsPerOp, plain.allocs)
	}
	if got := res["BenchmarkPruned/with-dash"].metrics["predicted-frac"]; got != 0.58 {
		t.Errorf("predicted-frac = %v, want the minimum 0.58", got)
	}
}

// guard runs perfguard on benchOut against the given baseline JSON and
// returns its error and report.
func guard(t *testing.T, baseline string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-baseline", path}, strings.NewReader(benchOut), &out)
	return out.String(), err
}

func TestRunGuards(t *testing.T) {
	for _, tc := range []struct {
		name, baseline, want string
		fail                 bool
	}{
		{
			name: "ratio within tolerance",
			// 8e8/2e8 = 4.0x against a 4.2x record: above the 3.78x floor.
			baseline: `{"guards":{"ratios":[{"name":"ckpt","fast":"BenchmarkCampaign/checkpointed","slow":"BenchmarkCampaign/plain","recorded":4.2}]}}`,
			want:     "ok   ckpt: 4.00x",
		},
		{
			name:     "ratio below floor",
			baseline: `{"guards":{"ratios":[{"name":"ckpt","fast":"BenchmarkCampaign/checkpointed","slow":"BenchmarkCampaign/plain","recorded":5}]}}`,
			want:     "FAIL ckpt: 4.00x (recorded 5.00x, floor 4.50x)",
			fail:     true,
		},
		{
			name:     "missing benchmark",
			baseline: `{"guards":{"ratios":[{"name":"gone","fast":"BenchmarkGone","slow":"BenchmarkCampaign/plain","recorded":1}]}}`,
			want:     "FAIL gone: missing benchmark results",
			fail:     true,
		},
		{
			name:     "zero allocs held",
			baseline: `{"guards":{"zero_allocs":["BenchmarkCycleLoop"]}}`,
			want:     "ok   zero-alloc BenchmarkCycleLoop",
		},
		{
			name:     "non-zero allocs",
			baseline: `{"guards":{"zero_allocs":["BenchmarkCampaign/checkpointed"]}}`,
			want:     "FAIL zero-alloc BenchmarkCampaign/checkpointed: 30 allocs/op",
			fail:     true,
		},
		{
			name:     "floors-only baseline",
			baseline: `{"guards":{"metric_floors":[{"name":"pf","bench":"BenchmarkPruned/with-dash","metric":"predicted-frac","floor":0.5}]}}`,
			want:     "ok   pf: BenchmarkPruned/with-dash predicted-frac = 0.58",
		},
		{
			name:     "floor violated",
			baseline: `{"guards":{"metric_floors":[{"name":"pf","bench":"BenchmarkPruned/with-dash","metric":"predicted-frac","floor":0.6}]}}`,
			want:     "FAIL pf: BenchmarkPruned/with-dash predicted-frac = 0.58, floor 0.6",
			fail:     true,
		},
		{
			name:     "no guards",
			baseline: `{"guards":{}}`,
			fail:     true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := guard(t, tc.baseline)
			if (err != nil) != tc.fail {
				t.Fatalf("err = %v, want failure %v; report:\n%s", err, tc.fail, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("report lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
