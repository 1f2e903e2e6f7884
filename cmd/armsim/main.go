// Command armsim runs a workload on the simulated ARM platform and reports
// the result and performance counters.
//
// Usage:
//
//	armsim -workload crc32 [-scale tiny|small|paper] [-preset zynq|gem5]
//	       [-model atomic|detailed] [-counters] [-max-cycles N]
//	       [-metrics-addr 127.0.0.1:9100]
//	armsim -file prog.s [-input data.bin -input-symbol input]
package main

import (
	"flag"
	"fmt"
	"os"

	"armsefi/internal/asm"
	"armsefi/internal/bench"
	"armsefi/internal/cpu"
	"armsefi/internal/isa"
	"armsefi/internal/obs"
	"armsefi/internal/report"
	"armsefi/internal/soc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "armsim:", err)
		os.Exit(1)
	}
}

func parsePreset(s string) (soc.Config, error) {
	switch s {
	case "zynq":
		return soc.PresetZynq(), nil
	case "gem5":
		return soc.PresetModel(), nil
	default:
		return soc.Config{}, fmt.Errorf("unknown preset %q (zynq|gem5)", s)
	}
}

func run() error {
	var (
		workload    = flag.String("workload", "", "built-in workload name (see -list)")
		list        = flag.Bool("list", false, "list built-in workloads")
		file        = flag.String("file", "", "assemble and run a user program instead")
		inputFile   = flag.String("input", "", "binary input staged at -input-symbol")
		inputSymbol = flag.String("input-symbol", "input", "data symbol receiving -input bytes")
		scaleFlag   = flag.String("scale", "tiny", "workload input scale (tiny|small|paper)")
		presetFlag  = flag.String("preset", "zynq", "platform preset (zynq|gem5)")
		modelFlag   = flag.String("model", "detailed", "CPU model (atomic|detailed)")
		counters    = flag.Bool("counters", false, "print performance counters")
		maxCycles   = flag.Uint64("max-cycles", 4_000_000_000, "run cycle budget")
		trace       = flag.Int("trace", 0, "print the first N executed instructions (atomic model only)")
		metrics     = flag.String("metrics-addr", "", "serve pprof and runtime metrics on HOST:PORT during the run")
	)
	flag.Parse()

	if *list {
		for _, s := range bench.All() {
			fmt.Printf("%-14s %s\n", s.Name, s.Characteristics)
		}
		return nil
	}

	if *metrics != "" {
		// armsim runs no fault campaigns, so the registry is empty; the
		// endpoint still exposes /debug/pprof for profiling the simulator.
		srv, err := obs.Serve(*metrics, obs.NewRegistry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (+ /debug/vars, /debug/pprof/)\n", srv.Addr())
	}

	preset, err := parsePreset(*presetFlag)
	if err != nil {
		return err
	}
	model, err := soc.ParseModel(*modelFlag)
	if err != nil {
		return err
	}
	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}

	m, err := soc.NewMachine(preset, model)
	if err != nil {
		return err
	}

	var golden []byte
	switch {
	case *workload != "":
		spec, ok := bench.ByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (try -list)", *workload)
		}
		built, err := spec.Build(soc.UserAsmConfig(), scale)
		if err != nil {
			return err
		}
		if err := m.LoadApp(built.Program); err != nil {
			return err
		}
		if len(built.Input) > 0 {
			if err := m.PokeBytes(built.InputAddr, built.Input); err != nil {
				return err
			}
		}
		golden = built.Golden
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		prog, err := asm.Assemble(*file, string(src), soc.UserAsmConfig())
		if err != nil {
			return err
		}
		if err := m.LoadApp(prog); err != nil {
			return err
		}
		if *inputFile != "" {
			data, err := os.ReadFile(*inputFile)
			if err != nil {
				return err
			}
			addr, ok := prog.Symbol(*inputSymbol)
			if !ok {
				return fmt.Errorf("program has no symbol %q", *inputSymbol)
			}
			if err := m.PokeBytes(addr, data); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("need -workload or -file (or -list)")
	}

	if *trace > 0 {
		atomicCore, ok := m.Core().(*cpu.Atomic)
		if !ok {
			return fmt.Errorf("-trace requires -model atomic")
		}
		left := *trace
		labels := map[uint32]string{}
		for name, addr := range m.Kernel.Symbols {
			labels[addr] = name
		}
		if app := m.App(); app != nil {
			for name, addr := range app.Symbols {
				labels[addr] = name
			}
		}
		atomicCore.SetTrace(func(pc uint32, mode isa.Mode, in isa.Instruction) {
			if left <= 0 {
				return
			}
			left--
			fmt.Printf("%08x %s  %s\n", pc, mode, asm.DisasmWord(pc, in.Encode(), labels))
		})
	}
	if err := m.Boot(50_000_000); err != nil {
		return err
	}
	res := m.Run(*maxCycles)
	fmt.Printf("outcome:      %v (exit code %#x)\n", res.Outcome, res.ExitCode)
	fmt.Printf("cycles:       %d\n", res.Cycles)
	fmt.Printf("instructions: %d (IPC %.2f)\n", res.Instructions,
		float64(res.Instructions)/float64(res.Cycles))
	fmt.Printf("output:       %d bytes\n", len(res.Output))
	if golden != nil {
		match := "MATCHES reference"
		if string(res.Output) != string(golden) {
			match = "DIFFERS from reference"
		}
		fmt.Printf("golden check: %s\n", match)
	}
	if *counters {
		fmt.Println()
		fmt.Print(report.CounterDeviation("run", m.Core().Counters(), m.Core().Counters()))
	}
	return nil
}
