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

// TestReplayGoldenFusedEqualsSeparatePasses pins the one-pass golden
// replay: for every Table III workload, cold and warm, capturing the
// ladder and recording liveness in one replay yields exactly the ladder
// of a ladder-only replay and exactly the five recorder logs of a
// liveness-only replay. It then guards rung cache interning against
// aliasing: after fault runs through the fused ladder, every rung's saved
// cache sets must still equal a non-interned capture taken before them.
func TestReplayGoldenFusedEqualsSeparatePasses(t *testing.T) {
	specs := bench.All()
	if testing.Short() {
		specs = specs[:3]
	}
	comps := []fault.Component{fault.CompL1I, fault.CompL1D, fault.CompL2, fault.CompRegFile}
	for _, spec := range specs {
		wb, err := harness.Build(soc.PresetModel(), soc.ModelDetailed, spec, bench.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, warm := range []bool{false, true} {
			if err := wb.Instrument(soc.DefaultCheckpointEvery, soc.DefaultMaxCheckpoints, true, warm); err != nil {
				t.Fatal(err)
			}
			ladder, live := wb.Ladder, wb.Liveness
			if err := wb.BuildLadder(soc.DefaultCheckpointEvery, soc.DefaultMaxCheckpoints, warm); err != nil {
				t.Fatal(err)
			}
			if err := soc.LadderDiff(ladder, wb.Ladder); err != nil {
				t.Errorf("%s warm=%v: fused ladder vs ladder-only: %v", spec.Name, warm, err)
			}
			if err := wb.BuildLiveness(warm); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live.Final, ladder.Final) || !reflect.DeepEqual(live.Final, wb.Liveness.Final) ||
				live.Warm != wb.Liveness.Warm {
				t.Errorf("%s warm=%v: fused liveness Final %+v vs liveness-only %+v",
					spec.Name, warm, live.Final, wb.Liveness.Final)
			}
			for name, pair := range map[string][2]any{
				"L1I":  {live.L1I, wb.Liveness.L1I},
				"L1D":  {live.L1D, wb.Liveness.L1D},
				"L2":   {live.L2, wb.Liveness.L2},
				"ITLB": {live.ITLB, wb.Liveness.ITLB},
				"DTLB": {live.DTLB, wb.Liveness.DTLB},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Errorf("%s warm=%v: fused %s liveness log differs from liveness-only", spec.Name, warm, name)
				}
			}

			// Aliasing guard over the fused ladder.
			m := wb.Machine
			var fresh [][3]*mem.CacheState
			for _, c := range ladder.Checkpoints() {
				m.RestoreCheckpoint(ladder, c)
				fresh = append(fresh, [3]*mem.CacheState{m.Mem.L1I.SaveState(), m.Mem.L1D.SaveState(), m.Mem.L2.SaveState()})
			}
			wb.Ladder = ladder
			rng := rand.New(rand.NewSource(int64(len(spec.Name))))
			for i := 0; i < 8; i++ {
				comp := comps[rng.Intn(len(comps))]
				wb.RunFaultLadder(fault.Fault{
					Comp:  comp,
					Bit:   uint64(rng.Int63n(int64(fault.SizeBits(m, comp)))),
					Cycle: uint64(rng.Int63n(int64(wb.Golden.Cycles))),
				}, warm)
			}
			for i, c := range ladder.Checkpoints() {
				for k, st := range c.CacheStates() {
					if !st.Equal(fresh[i][k]) {
						t.Errorf("%s warm=%v checkpoint %d (cycle %d): saved cache %d changed after fault runs",
							spec.Name, warm, i, c.Cycle, k)
					}
				}
			}
		}
	}
}
