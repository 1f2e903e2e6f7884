package beam

import (
	"errors"
	"math"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/sched"
)

// TestInvalidSizesRejected pins that a negative strike count, and a
// negative or non-finite beam time, flux, clock or cross-section, are
// refused as invalid configurations by every entry point before any
// workload is built — instead of yielding positive FIT rates.
func TestInvalidSizesRejected(t *testing.T) {
	spec, _ := bench.ByName("crc32")
	bad := map[string]Config{
		"strikes":        {StrikesPerComponent: -1},
		"hours":          {BeamHours: -1},
		"hours NaN":      {BeamHours: math.NaN()},
		"hours Inf":      {BeamHours: math.Inf(1)},
		"flux":           {Flux: -3.5e5},
		"flux NaN":       {Flux: math.NaN()},
		"clock":          {ClockHz: -1},
		"cross-section":  {BitXS: -1e-14},
		"cross-sec. NaN": {BitXS: math.NaN()},
	}
	for name, cfg := range bad {
		if _, err := Run(cfg, []bench.Spec{spec}, nil); !errors.Is(err, sched.ErrConfig) {
			t.Errorf("%s: Run error %v, want an invalid configuration", name, err)
		}
		if _, err := RunWorkload(cfg, spec, nil); !errors.Is(err, sched.ErrConfig) {
			t.Errorf("%s: RunWorkload error %v, want an invalid configuration", name, err)
		}
		if _, _, err := NewShardRunner(cfg).RunShard(spec, 0); !errors.Is(err, sched.ErrConfig) {
			t.Errorf("%s: RunShard error %v, want an invalid configuration", name, err)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config refused: %v", err)
	}
}
