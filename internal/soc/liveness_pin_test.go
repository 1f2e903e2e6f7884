package soc_test

import (
	"fmt"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/fault"
	"armsefi/internal/core/harness"
	"armsefi/internal/mem"
	"armsefi/internal/soc"
)

// liveRecording is the query surface CacheLiveness and TLBLiveness share.
type liveRecording interface {
	QueryBit(bit, flipAt uint64) mem.LiveQuery
	WindowOf(bit, flipAt uint64) (int, uint64, bool)
	EnumWindows(bit, maxCycle uint64, fn func(start, width uint64)) bool
	Overflowed() int
}

// pinStep is the byte stride of the QueryBit/WindowOf grid and pinCycles
// its number of flip cycles, spread evenly over the golden run.
const (
	pinStep   = 5
	pinCycles = 9
)

// liveDigest folds everything the campaign engines read from one
// structure's recording into an FNV-1a hash: the Overflowed count; for
// every byte of a cache (every bit of a TLB entry) its EnumWindows
// tiling; and on a bit x cycle grid each QueryBit verdict, validity and
// line address and each WindowOf index and ok flag. The per-site Sig is
// left out on purpose: it is a site constant that equiv.Key compares
// within one site only, so its value is free to change with the event
// encoding.
func liveDigest(r liveRecording, sizeBits, cycles uint64, tlb bool) uint64 {
	h := uint64(14695981039346656037)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	fold(uint64(r.Overflowed()))
	visit := func(bit uint64, grid bool) {
		ok := r.EnumWindows(bit, cycles, func(start, width uint64) { fold(start); fold(width) })
		fold(boolBit(ok))
		if !grid {
			return
		}
		for k := uint64(0); k < pinCycles; k++ {
			at := cycles * k / (pinCycles - 1)
			q := r.QueryBit(bit, at)
			fold(uint64(q.Verdict) | boolBit(q.Valid)<<8 | uint64(q.LineAddr)<<16)
			win, _, ok := r.WindowOf(bit, at)
			fold(uint64(win)<<1 | boolBit(ok))
		}
	}
	if tlb {
		// TLB events cover bit offsets within the entry.
		for bit := uint64(0); bit < sizeBits; bit++ {
			visit(bit, bit%pinStep == 0)
		}
		return h
	}
	// Every bit of a cache byte shares the byte's events: one per byte,
	// its position within the byte varied.
	for b := uint64(0); b < sizeBits/8; b++ {
		visit(b*8+b%8, b%pinStep == 0)
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestLivenessStreamPinned pins the liveness log's query answers for every
// Table III workload and every recorded structure to digests taken from
// the uncompressed 24-byte event stream: QueryBit verdicts, WindowOf
// indices, EnumWindows tilings and Overflowed counts must not move when
// the recorder's encoding or coalescing changes.
func TestLivenessStreamPinned(t *testing.T) {
	specs := bench.All()
	if testing.Short() {
		specs = specs[:3]
	}
	for _, spec := range specs {
		wb, err := harness.Build(soc.PresetModel(), soc.ModelDetailed, spec, bench.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if err := wb.BuildLiveness(false); err != nil {
			t.Fatal(err)
		}
		log, m := wb.Liveness, wb.Machine
		cycles := log.Final.Cycles
		for _, s := range []struct {
			comp fault.Component
			rec  liveRecording
			tlb  bool
		}{
			{fault.CompL1I, log.L1I, false},
			{fault.CompL1D, log.L1D, false},
			{fault.CompL2, log.L2, false},
			{fault.CompITLB, log.ITLB, true},
			{fault.CompDTLB, log.DTLB, true},
		} {
			key := fmt.Sprintf("%s/%v", spec.Name, s.comp)
			got := liveDigest(s.rec, fault.SizeBits(m, s.comp), cycles, s.tlb)
			want, ok := livenessPins[key]
			if !ok || got != want {
				t.Errorf("%s: digest %#x, want %#x (overflowed ways %d)", key, got, want, s.rec.Overflowed())
			}
		}
	}
}

// livenessPins holds liveDigest per workload/structure, recorded with the
// uncoalesced recorder (24-byte events, one per note).
var livenessPins = map[string]uint64{
	"crc32/l1i":         0xc5a99ab3bb894db7,
	"crc32/l1d":         0x607c58b6f78da31d,
	"crc32/l2":          0x13df1d6926b0372c,
	"crc32/itlb":        0xc6cc82221e60ffc8,
	"crc32/dtlb":        0xe4ca11bbbbc07286,
	"dijkstra/l1i":      0x68e31d7dd7eef3c8,
	"dijkstra/l1d":      0x320573fb1fb2db93,
	"dijkstra/l2":       0xed0ac17910f8c0b4,
	"dijkstra/itlb":     0xa500f5a5f9b00ac4,
	"dijkstra/dtlb":     0x3c06a68326d49a7d,
	"fft/l1i":           0xd3dc273ba9163b97,
	"fft/l1d":           0x62458f4fa52242a9,
	"fft/l2":            0x3e214cf10485ebd4,
	"fft/itlb":          0xfa596e28dbfd3008,
	"fft/dtlb":          0xf93d6a2fe4aaeb13,
	"jpeg_c/l1i":        0x7be5e964fd9d548c,
	"jpeg_c/l1d":        0x4f8ae81263e60e61,
	"jpeg_c/l2":         0x55197dd7c989bdee,
	"jpeg_c/itlb":       0x51625789e99d7f20,
	"jpeg_c/dtlb":       0x6bcfb63f9ea2b9ae,
	"jpeg_d/l1i":        0x9f824592fb273985,
	"jpeg_d/l1d":        0x510ab5b72c01bc83,
	"jpeg_d/l2":         0x7afa2ce0abccfdc5,
	"jpeg_d/itlb":       0x642a4a10a7202574,
	"jpeg_d/dtlb":       0xb2a06aad380e8f08,
	"matmul/l1i":        0xa7a15a115c3fbc96,
	"matmul/l1d":        0x9a1e6546bec23c90,
	"matmul/l2":         0xe75d3d602f9ebcfb,
	"matmul/itlb":       0xdca015cfa45cdf5c,
	"matmul/dtlb":       0x8d661dfcb42add70,
	"qsort/l1i":         0x7f773c25aa5cc524,
	"qsort/l1d":         0x9afb5ef8adf01315,
	"qsort/l2":          0xf74c1a0b5b403008,
	"qsort/itlb":        0x82d450c2fe80114c,
	"qsort/dtlb":        0xb3403491d3e05e4c,
	"rijndael_e/l1i":    0x253eae34bc8d27b1,
	"rijndael_e/l1d":    0xa0ae096477e75b4b,
	"rijndael_e/l2":     0x6d0395de0aa8bf18,
	"rijndael_e/itlb":   0xa5639e1b5a2d06df,
	"rijndael_e/dtlb":   0x9c7fce901083d8fb,
	"rijndael_d/l1i":    0x6482e1a1e84f4285,
	"rijndael_d/l1d":    0x3488b6f3938e7028,
	"rijndael_d/l2":     0xd69d8d4c57192e64,
	"rijndael_d/itlb":   0xdcff08c2d8eac5df,
	"rijndael_d/dtlb":   0xffaf70df31161bf4,
	"stringsearch/l1i":  0x4487ca68974317dc,
	"stringsearch/l1d":  0xe363b3006538f5c6,
	"stringsearch/l2":   0x94df2f1a6e6eb1b2,
	"stringsearch/itlb": 0x581a8d3a758b2710,
	"stringsearch/dtlb": 0xe6393ab4ce86de46,
	"susan_c/l1i":       0xb85fd7b88546f1a1,
	"susan_c/l1d":       0xeb4a5464b556d91b,
	"susan_c/l2":        0x93168e355f251be1,
	"susan_c/itlb":      0x6fe2d64cbc20ef54,
	"susan_c/dtlb":      0xd255a2ed443ed94e,
	"susan_e/l1i":       0x55b96659b417b5ce,
	"susan_e/l1d":       0x6039f888dd986cb5,
	"susan_e/l2":        0x7ec05272f2ab3ca9,
	"susan_e/itlb":      0x51d755e8d24f901c,
	"susan_e/dtlb":      0xc7ce36225892e1be,
	"susan_s/l1i":       0xe06cba305eee4650,
	"susan_s/l1d":       0xec710562fe71b73a,
	"susan_s/l2":        0x317ab7905fc6ba0b,
	"susan_s/itlb":      0x815978c02f61b28c,
	"susan_s/dtlb":      0x56925089985fc900,
}
