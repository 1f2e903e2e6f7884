package ace_test

import (
	"math"
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/core/ace"
	"armsefi/internal/core/fault"
)

// acePins are ace.Run's estimates for every Table III workload at the
// default configuration, recorded from the per-structure lifetime
// tracker that hooked the caches and TLBs before ACE was derived from
// the liveness recorder's running value-life totals.
var acePins = []struct {
	workload    string
	comp        fault.Component
	avfBits     uint64
	total, read uint64
}{
	{"crc32", fault.CompL1I, 0x3f7c098a52dcbb85, 18, 18},
	{"crc32", fault.CompL1D, 0x3fab8fd4c428bde4, 700, 397},
	{"crc32", fault.CompL2, 0x0, 348, 348},
	{"crc32", fault.CompITLB, 0x3fab6489d37615e4, 2, 2},
	{"crc32", fault.CompDTLB, 0x3fc046acd30d5567, 9, 9},
	{"dijkstra", fault.CompL1I, 0x3f8a442242070d48, 23, 23},
	{"dijkstra", fault.CompL1D, 0x3fb0fdfc951c9d89, 915, 575},
	{"dijkstra", fault.CompL2, 0x0, 120, 120},
	{"dijkstra", fault.CompITLB, 0x3fa98c44be346b5c, 2, 2},
	{"dijkstra", fault.CompDTLB, 0x3fb7e4a8e4ec4b84, 7, 7},
	{"fft", fault.CompL1I, 0x3f86e9e196804d8d, 25, 25},
	{"fft", fault.CompL1D, 0x3fbccc26786903f5, 5403, 2540},
	{"fft", fault.CompL2, 0x0, 227, 227},
	{"fft", fault.CompITLB, 0x3fabdcbc0214413f, 2, 2},
	{"fft", fault.CompDTLB, 0x3fc51ce7de48a81b, 8, 8},
	{"jpeg_c", fault.CompL1I, 0x3f97224863a3117b, 33, 33},
	{"jpeg_c", fault.CompL1D, 0x3fb12e78db062765, 4860, 1717},
	{"jpeg_c", fault.CompL2, 0x0, 159, 159},
	{"jpeg_c", fault.CompITLB, 0x3fae44be2cbca532, 2, 2},
	{"jpeg_c", fault.CompDTLB, 0x3fc21a67cc76b056, 7, 7},
	{"jpeg_d", fault.CompL1I, 0x3f97570ed9176a3b, 33, 33},
	{"jpeg_d", fault.CompL1D, 0x3fb229e328c8c9df, 5712, 1714},
	{"jpeg_d", fault.CompL2, 0x0, 157, 157},
	{"jpeg_d", fault.CompITLB, 0x3fae4efb21c1ee52, 2, 2},
	{"jpeg_d", fault.CompDTLB, 0x3fc2d841fdbd665a, 7, 7},
	{"matmul", fault.CompL1I, 0x3f81bb41eded2eaf, 18, 18},
	{"matmul", fault.CompL1D, 0x3fb0b19e7631990d, 479, 179},
	{"matmul", fault.CompL2, 0x0, 164, 164},
	{"matmul", fault.CompITLB, 0x3fa8f44d69ac4ea1, 2, 2},
	{"matmul", fault.CompDTLB, 0x3fbe57a95d4b1887, 7, 7},
	{"qsort", fault.CompL1I, 0x3f83f422a4e6f8f6, 21, 21},
	{"qsort", fault.CompL1D, 0x3fbbec3200cfcbbb, 7440, 4617},
	{"qsort", fault.CompL2, 0x0, 198, 198},
	{"qsort", fault.CompITLB, 0x3fac670eb32adf99, 2, 2},
	{"qsort", fault.CompDTLB, 0x3fc7c8c21840d231, 10, 10},
	{"rijndael_e", fault.CompL1I, 0x3fa8e2e7bf92f6ae, 70, 70},
	{"rijndael_e", fault.CompL1D, 0x3fb83fa6cb32c7df, 48470, 23874},
	{"rijndael_e", fault.CompL2, 0x0, 275, 275},
	{"rijndael_e", fault.CompITLB, 0x3faed9d40801a024, 2, 2},
	{"rijndael_e", fault.CompDTLB, 0x3fcb1dbf7be5a638, 9, 9},
	{"rijndael_d", fault.CompL1I, 0x3fabfc373186c820, 75, 75},
	{"rijndael_d", fault.CompL1D, 0x3fbc2d9c07bb27c1, 69190, 44925},
	{"rijndael_d", fault.CompL2, 0x0, 304, 304},
	{"rijndael_d", fault.CompITLB, 0x3faf35fa0a6a2332, 2, 2},
	{"rijndael_d", fault.CompDTLB, 0x3fcb649eec379138, 9, 9},
	{"stringsearch", fault.CompL1I, 0x3f8a4bc85d9c4e29, 24, 24},
	{"stringsearch", fault.CompL1D, 0x3f9d7b832ac36b0f, 12881, 333},
	{"stringsearch", fault.CompL2, 0x0, 209, 209},
	{"stringsearch", fault.CompITLB, 0x3faa1b235491bc65, 2, 2},
	{"stringsearch", fault.CompDTLB, 0x3fba5c39550ce3cd, 8, 8},
	{"susan_c", fault.CompL1I, 0x3f8b22fbcc88513c, 20, 20},
	{"susan_c", fault.CompL1D, 0x3fad8046f31f1c8b, 1748, 636},
	{"susan_c", fault.CompL2, 0x0, 143, 143},
	{"susan_c", fault.CompITLB, 0x3faf182c4c1462ee, 2, 2},
	{"susan_c", fault.CompDTLB, 0x3fc374b111280494, 7, 7},
	{"susan_e", fault.CompL1I, 0x3f8b237b4dc6b86c, 20, 20},
	{"susan_e", fault.CompL1D, 0x3fad819786f69b8d, 1748, 636},
	{"susan_e", fault.CompL2, 0x0, 143, 143},
	{"susan_e", fault.CompITLB, 0x3faf18b209e6bcde, 2, 2},
	{"susan_e", fault.CompDTLB, 0x3fc375016f2e7fcb, 7, 7},
	{"susan_s", fault.CompL1I, 0x3f8b4e263620d2b5, 20, 20},
	{"susan_s", fault.CompL1D, 0x3fadb377c6142dd6, 1856, 732},
	{"susan_s", fault.CompL2, 0x0, 143, 143},
	{"susan_s", fault.CompITLB, 0x3faf396166f08042, 2, 2},
	{"susan_s", fault.CompDTLB, 0x3fc388a5827842d5, 7, 7},
}

// TestACEPinned holds ace.Run's AVF, ValuesTotal and ValuesRead bit-equal
// to the recorded estimates for all 13 workloads x 5 structures.
func TestACEPinned(t *testing.T) {
	byWorkload := make(map[string]*ace.Result)
	for _, p := range acePins {
		res, ok := byWorkload[p.workload]
		if !ok {
			if testing.Short() && len(byWorkload) == 3 {
				continue
			}
			spec, found := bench.ByName(p.workload)
			if !found {
				t.Fatalf("unknown workload %s", p.workload)
			}
			var err error
			if res, err = ace.Run(ace.Config{}, spec); err != nil {
				t.Fatal(err)
			}
			byWorkload[p.workload] = res
		}
		e, ok := res.Component(p.comp)
		if !ok {
			t.Fatalf("%s: no %v estimate", p.workload, p.comp)
		}
		if math.Float64bits(e.AVF) != p.avfBits || e.ValuesTotal != p.total || e.ValuesRead != p.read {
			t.Errorf("%s/%v: AVF %g (%#x) values %d/%d, want %g (%#x) %d/%d", p.workload, p.comp,
				e.AVF, math.Float64bits(e.AVF), e.ValuesTotal, e.ValuesRead,
				math.Float64frombits(p.avfBits), p.avfBits, p.total, p.read)
		}
	}
}
