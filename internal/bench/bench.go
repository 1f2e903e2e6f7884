// Package bench implements the thirteen MiBench-derived workloads of the
// paper's Table III, plus the FIT-raw cache probe of Section VI, as real
// machine code for the simulated platform. Each workload ships with a
// native Go reference implementation that computes the golden output the
// experiments compare against (and doubles as the "software native" row of
// Table I).
//
// Because the simulated platform is far slower than the authors' testbed,
// input sizes are scaled: ScaleTiny for test suites and benchmarks,
// ScaleSmall for fuller runs, and ScalePaper for the closest practical
// approximation of Table III (capped by the platform's 4 MB DRAM). The
// computational character of every workload — CPU-, memory-, or
// control-intensive; small or large footprint — is preserved at all scales.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"armsefi/internal/asm"
)

// Scale selects workload input sizes.
type Scale uint8

// Input scales.
const (
	ScaleTiny Scale = 1 + iota
	ScaleSmall
	ScalePaper
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", uint8(s))
	}
}

// ParseScale parses a scale name as the campaign commands' -scale flag
// spells it.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("unknown scale %q (tiny|small|paper)", s)
}

// Built is a workload instantiated at a scale, ready to load into a
// machine.
type Built struct {
	Spec    Spec
	Scale   Scale
	Program *asm.Program
	// Input is poked into physical memory at InputAddr before the run (the
	// experiment host loading the input vector).
	InputAddr uint32
	Input     []byte
	// Golden is the expected UART output, computed by the Go reference.
	Golden []byte
}

// Spec describes one workload (one row of Table III).
type Spec struct {
	Name            string
	InputDesc       string // paper's input description
	Characteristics string // paper's characterisation
	// SmallFootprint marks the workloads the paper identifies as leaving
	// most of the cache hierarchy unused (Dijkstra, MatMul, StringSearch,
	// the Susans) — the drivers of the beam System-Crash surplus.
	SmallFootprint bool

	build func(cfg asm.Config, scale Scale) (*Built, error)
}

// Build instantiates the workload at a scale for the platform's user-space
// assembler configuration.
func (s Spec) Build(cfg asm.Config, scale Scale) (*Built, error) {
	b, err := s.build(cfg, scale)
	if err != nil {
		return nil, fmt.Errorf("bench: building %s/%s: %w", s.Name, scale, err)
	}
	b.Spec = s
	b.Scale = scale
	return b, nil
}

// registry holds all workloads keyed by name.
var registry = map[string]Spec{}

func register(s Spec) Spec {
	if _, dup := registry[s.Name]; dup {
		panic("bench: duplicate workload " + s.Name)
	}
	registry[s.Name] = s
	return s
}

// ByName returns a workload spec.
func ByName(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// All returns the thirteen Table III workloads in the paper's order.
func All() []Spec {
	names := []string{
		"crc32", "dijkstra", "fft", "jpeg_c", "jpeg_d", "matmul", "qsort",
		"rijndael_e", "rijndael_d", "stringsearch", "susan_c", "susan_e", "susan_s",
	}
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, ok := registry[n]
		if !ok {
			panic("bench: workload not registered: " + n)
		}
		out = append(out, s)
	}
	return out
}

// Select resolves a comma-separated workload list, as the campaign
// commands' -workloads flag takes it; the empty list selects All.
func Select(list string) ([]Spec, error) {
	if list == "" {
		return All(), nil
	}
	names := strings.Split(list, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return Lookup(names)
}

// Lookup resolves workload names in order, rejecting unknown and repeated
// names: a campaign runs each workload once, and its per-workload results
// and shards are keyed by name.
func Lookup(names []string) ([]Spec, error) {
	specs := make([]Spec, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		s, ok := registry[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("workload %q listed twice", name)
		}
		seen[name] = true
		specs = append(specs, s)
	}
	return specs, nil
}

// Names returns every registered workload name (including the FIT-raw
// probe), sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rng is a splitmix64 generator: deterministic input data independent of Go
// library versions.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if i%8 == 0 {
			r.next()
		}
		out[i] = byte(r.state >> (8 * (i % 8)))
	}
	return out
}

func (r *rng) uint32n(n uint32) uint32 {
	return uint32(r.next() % uint64(n))
}

// float32unit returns a float in [0, 1) with a short mantissa so that
// arithmetic stays well-conditioned.
func (r *rng) float32unit() float32 {
	return float32(r.next()%(1<<20)) / (1 << 20)
}

// assemble builds a program and resolves the conventional input symbol.
func assemble(name, src string, cfg asm.Config) (*asm.Program, error) {
	prog, err := asm.Assemble(name, src, cfg)
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// exitSnippet is the common epilogue: write outbuf and exit(0). Workloads
// jump to `finish` with r5 = number of output bytes.
const exitSnippet = `
; common epilogue: r5 = output length in bytes
finish:
	ldr r0, =outbuf
	mov r1, r5
	mov r7, #2
	svc #0
	mov r0, #0
	mov r7, #1
	svc #0
`
