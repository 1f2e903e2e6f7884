package gefin

import (
	"errors"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/sched"
)

// TestNegativeFaultsRejected pins that a negative sample size is refused
// as an invalid configuration by every entry point — the in-process
// engine and the shard runner — before any plan is sized from it.
func TestNegativeFaultsRejected(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	cfg := Config{FaultsPerComponent: -1}
	if _, err := Run(cfg, []bench.Spec{spec}, nil); !errors.Is(err, sched.ErrConfig) {
		t.Errorf("Run: error %v, want an invalid configuration", err)
	}
	if _, err := RunWorkload(cfg, spec, nil); !errors.Is(err, sched.ErrConfig) {
		t.Errorf("RunWorkload: error %v, want an invalid configuration", err)
	}
	if _, _, err := NewShardRunner(cfg).RunShard(spec, 0, 1); !errors.Is(err, sched.ErrConfig) {
		t.Errorf("RunShard: error %v, want an invalid configuration", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config refused: %v", err)
	}
}
