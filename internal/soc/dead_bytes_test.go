package soc_test

import (
	"math/rand"
	"reflect"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/mem"
	"armsefi/internal/soc"
)

// scrambleInvalid fills the bytes of every invalid line of c with random
// bits, through the fault-injection surface.
func scrambleInvalid(c *mem.Cache, rng *rand.Rand) {
	cfg := c.Config()
	lineBits := uint64(cfg.LineBytes) * 8
	for line := uint64(0); line < uint64(cfg.SizeBytes/cfg.LineBytes); line++ {
		if _, valid, _ := c.LineInfo(line * lineBits); valid {
			continue
		}
		for b := uint64(0); b < lineBits; b += 64 {
			r := rng.Uint64()
			for k := uint64(0); k < 64; k++ {
				if r>>k&1 != 0 {
					c.FlipDataBit(line*lineBits + b + k)
				}
			}
		}
	}
}

func scrambleCaches(m *soc.Machine, rng *rand.Rand) {
	scrambleInvalid(m.Mem.L1I, rng)
	scrambleInvalid(m.Mem.L1D, rng)
	scrambleInvalid(m.Mem.L2, rng)
}

// TestInvalidLineBytesAreDead pins the premise of saving no bytes for a
// cache set without a valid way and zeroing them on restore: the bytes of
// invalid lines never reach a Result, a fingerprint or a liveness
// recording. With every invalid line of the L1I, L1D and L2 filled with
// random bytes, a golden run gives the golden Result and the ladder's
// fingerprint at every rung cycle, an instrumented replay captures the
// same rung fingerprints and liveness digests, and ladder injection runs
// — scrambled before the run and again at the injection instant — give
// the Results and ladder statistics of unscrambled ones.
func TestInvalidLineBytesAreDead(t *testing.T) {
	comps := []fault.Component{fault.CompL1I, fault.CompL1D, fault.CompL2, fault.CompRegFile}
	for _, name := range []string{"crc32", "qsort", "fft"} {
		spec, _ := bench.ByName(name)
		wb, err := harness.Build(soc.PresetModel(), soc.ModelDetailed, spec, bench.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.Instrument(soc.DefaultCheckpointEvery, soc.DefaultMaxCheckpoints, true, false); err != nil {
			t.Fatal(err)
		}
		m, ladder, live := wb.Machine, wb.Ladder, wb.Liveness
		rungs := ladder.Checkpoints()
		rng := rand.New(rand.NewSource(int64(len(name))))
		digests := func(log *soc.LivenessLog) []uint64 {
			cycles := log.Final.Cycles
			return []uint64{
				liveDigest(log.L1I, fault.SizeBits(m, fault.CompL1I), cycles, false),
				liveDigest(log.L1D, fault.SizeBits(m, fault.CompL1D), cycles, false),
				liveDigest(log.L2, fault.SizeBits(m, fault.CompL2), cycles, false),
			}
		}
		wantDigests := digests(live)

		// Scrambled golden runs, one per rung, each sampling the
		// fingerprint at the rung's cycle.
		for i, r := range rungs {
			m.RestoreSnapshot(wb.Snap, false)
			scrambleCaches(m, rng)
			var fp uint64
			res := m.RunWithInjection(wb.Watchdog, r.Cycle, func() { fp = m.Fingerprint() })
			if !reflect.DeepEqual(res, wb.Golden) {
				t.Fatalf("%s rung %d: scrambled golden run %+v != golden %+v", name, i, res, wb.Golden)
			}
			if fp != r.Fingerprint {
				t.Errorf("%s rung %d (cycle %d): scrambled fingerprint %#x != %#x", name, i, r.Cycle, fp, r.Fingerprint)
			}
		}

		// A scrambled instrumented replay: a cold restore invalidates
		// lines but keeps their bytes, so the scramble reaches the replay.
		m.RestoreSnapshot(wb.Snap, false)
		scrambleCaches(m, rng)
		if err := wb.Instrument(soc.DefaultCheckpointEvery, soc.DefaultMaxCheckpoints, true, false); err != nil {
			t.Fatal(err)
		}
		again := wb.Ladder.Checkpoints()
		if len(again) != len(rungs) {
			t.Fatalf("%s: scrambled replay captured %d rungs, want %d", name, len(again), len(rungs))
		}
		for i := range rungs {
			if again[i].Cycle != rungs[i].Cycle || again[i].Fingerprint != rungs[i].Fingerprint {
				t.Errorf("%s rung %d: scrambled capture cycle %d fingerprint %#x, want %d %#x",
					name, i, again[i].Cycle, again[i].Fingerprint, rungs[i].Cycle, rungs[i].Fingerprint)
			}
		}
		if got := digests(wb.Liveness); !reflect.DeepEqual(got, wantDigests) {
			t.Errorf("%s: scrambled liveness digests %#x, want %#x", name, got, wantDigests)
		}

		// Ladder injection runs.
		for i := 0; i < 6; i++ {
			comp := comps[rng.Intn(len(comps))]
			f := fault.Fault{
				Comp:  comp,
				Bit:   uint64(rng.Int63n(int64(fault.SizeBits(m, comp)))),
				Cycle: uint64(rng.Int63n(int64(wb.Golden.Cycles))),
			}
			want, wantStats := m.RunLadderInjection(ladder, wb.Watchdog, f.Cycle, func() { fault.Apply(m, f) })
			scrambleCaches(m, rng)
			got, gotStats := m.RunLadderInjection(ladder, wb.Watchdog, f.Cycle, func() {
				scrambleCaches(m, rng)
				fault.Apply(m, f)
			})
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Errorf("%s %v: scrambled ladder run %+v %+v, want %+v %+v", name, f, got, gotStats, want, wantStats)
			}
		}
	}
}
