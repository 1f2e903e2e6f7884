package serve

import (
	"context"
	"encoding/json"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/gefin"
)

// TestWorkerReleasesIdleRunners pins the worker's memory contract: a
// cached shard runner holds a campaign's prepared workbenches, so once a
// campaign completes and the loop finds nothing to claim it must hold no
// runner. A second campaign through the same loop must still assemble
// Workloads byte-identical to an in-process gefin.Run.
func TestWorkerReleasesIdleRunners(t *testing.T) {
	spec, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 missing")
	}
	c := testCoordinator(t, newFakeClock(), 0)
	w := newWorkerLoop(WorkerConfig{Node: "n", Source: c})
	for _, seed := range []int64{3, 4} {
		cfg := gefin.Config{
			Seed:               seed,
			FaultsPerComponent: 4,
			Components:         []fault.Component{fault.CompRegFile, fault.CompDTLB},
			Workers:            1,
		}
		man, err := BuildManifest(KindInjection, &cfg, nil, []string{"crc32"}, 3)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Submit(man)
		if err != nil {
			t.Fatal(err)
		}
		for shards := 0; ; shards++ {
			ran, err := w.step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				if shards != len(man.Shards) {
					t.Fatalf("seed %d: loop idled after %d of %d shards", seed, shards, len(man.Shards))
				}
				break
			}
			if len(w.injRunners) != 1 {
				t.Fatalf("seed %d: %d runners cached mid-campaign, want 1", seed, len(w.injRunners))
			}
		}
		if n := len(w.injRunners) + len(w.beamRunners); n != 0 {
			t.Fatalf("seed %d: %d runners still cached after the loop idled", seed, n)
		}

		direct, err := gefin.Run(cfg, []bench.Spec{spec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		dj, _ := json.Marshal(direct.Workloads)
		aj, _ := json.Marshal(res.(*gefin.Result).Workloads)
		if string(dj) != string(aj) {
			t.Fatalf("seed %d: service run diverged from in-process run:\n direct  %s\n service %s", seed, dj, aj)
		}
	}
}
