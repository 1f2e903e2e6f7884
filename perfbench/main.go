// Command perfbench is the armsefi campaign benchmark. It runs one of three
// closed-loop workloads — one client, one campaign at a time, one
// simulating worker — for a fixed time, checks every campaign Result, and
// prints one JSON object of metrics as the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload service-remote --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (setup_s, wall_s,
// slots_per_s, cpu_s, alloc_mb); with --trace 1 it runs a separate traced
// pass that times calls into each module from this package's own clocks
// and reports the per-layer metrics. README.md maps layers to metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Set-up is timed in setupBlocks blocks. A block repeats the set-up
// until it has lasted setupBlock and made at least setupMinReps set-ups,
// and its value is the mean set-up time; setup_s is the median block.
// One set-up of an in-process workload takes well under a millisecond,
// too short to time alone on a shared host.
const (
	setupBlocks  = 7
	setupBlock   = 100 * time.Millisecond
	setupMinReps = 3
)

// minCampaigns is the fewest timed campaigns a run makes, however short
// --seconds is, so every median has a middle.
const minCampaigns = 4

// maxElapsed caps a run's campaign loop at this multiple of --seconds of
// real time, so campaigns that fail at once cannot keep it going: only
// campaign wall time counts against --seconds, and service-remote's
// untimed reference campaigns take about as long again.
const maxElapsed = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-pipeline, service-remote or suite-triage")
		seed    = flag.Int64("seed", defaultSeed, "seed of the campaign plans and of the benchmark's own fault samples")
		seconds = flag.Int("seconds", 35, "how long the timed campaign loop runs")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(w, *seed, dur)
	} else {
		rep, err = runTimed(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// sample is one timed campaign.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
	heap      uint64 // live heap bytes at the start, after a collection
	slots     int
}

// timeCampaign runs one campaign from a collected heap, so every campaign
// starts from the same garbage-collector state, and measures its wall
// time, process CPU time and allocated bytes.
func timeCampaign(s session, lc *layerClock, seed int64) (sample, outcome, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	out, err := s.campaign(lc, seed)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc, heap: m0.HeapAlloc, slots: out.slots}, out, err
}

// runTimed is the untraced run: set-up, then campaigns until their wall
// times add up to dur, each checked before it counts. The checks and the
// collections between campaigns are not counted against dur.
func runTimed(w *workload, seed int64, dur time.Duration) (*report, error) {
	s, setup, err := setUp(w)
	if err != nil {
		return nil, err
	}
	defer s.close()
	chk := newChecker(w, seed)
	rep := &report{}
	var (
		samples  []sample
		measured time.Duration
		start    = time.Now()
	)
	for rep.Attempted < minCampaigns || (measured < dur && time.Since(start) < maxElapsed*dur) {
		j := rep.Attempted
		smp, out, err := timeCampaign(s, nil, campaignSeed(seed, j))
		measured += smp.wall
		rep.Attempted++
		if err == nil {
			err = chk.check(j, out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d: %v\n", w.name, rep.Attempted, err)
			rep.Failed++
			continue
		}
		samples = append(samples, smp)
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: every campaign failed", w.name)
	}
	walls, cpus, allocs, rates := make([]float64, len(samples)), make([]float64, len(samples)),
		make([]float64, len(samples)), make([]float64, len(samples))
	for i, smp := range samples {
		walls[i] = smp.wall.Seconds()
		cpus[i] = smp.cpu.Seconds()
		allocs[i] = float64(smp.alloc) / 1e6
		rates[i] = float64(smp.slots) / smp.wall.Seconds()
	}
	rep.Metrics = map[string]metric{
		"setup_s":     {median(setup), "s"},
		"wall_s":      {median(walls), "s"},
		"slots_per_s": {median(rates), "1/s"},
		"cpu_s":       {median(cpus), "s"},
		"alloc_mb":    {median(allocs), "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d campaigns, wall_s %v\nperfbench: %s plan digests %q\n",
		w.name, len(samples), walls, w.name, chk.digests)
	return rep, nil
}

// setUp times the workload's set-up in blocks, closing every session it
// times, and returns one more session, opened untimed, with the block
// means.
func setUp(w *workload) (session, []float64, error) {
	blocks := make([]float64, setupBlocks)
	for b := range blocks {
		runtime.GC()
		var sum time.Duration
		n := 0
		for start := time.Now(); n < setupMinReps || time.Since(start) < setupBlock; n++ {
			t0 := time.Now()
			s, err := w.open()
			if err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			sum += time.Since(t0)
			if err := s.close(); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
		}
		blocks[b] = sum.Seconds() / float64(n)
	}
	s, err := w.open()
	if err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return s, blocks, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; zero for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
