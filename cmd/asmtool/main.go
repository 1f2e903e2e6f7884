// Command asmtool assembles and disassembles programs for the simulator's
// ISA.
//
// Usage:
//
//	asmtool -assemble prog.s [-text-base 0x100000 -data-base 0x200000]
//	        [-o prog.bin] [-symbols] [-disasm]
//	asmtool -workload crc32 [-scale tiny]   # disassemble a built-in workload
package main

import (
	"flag"
	"fmt"
	"os"

	"armsefi/internal/asm"
	"armsefi/internal/bench"
	"armsefi/internal/soc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "asmtool:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		assemble = flag.String("assemble", "", "assembly source file")
		workload = flag.String("workload", "", "disassemble a built-in workload instead")
		scale    = flag.String("scale", "tiny", "workload scale (tiny|small|paper)")
		textBase = flag.Uint64("text-base", uint64(soc.UserTextBase), "text load address")
		dataBase = flag.Uint64("data-base", uint64(soc.UserDataBase), "data load address")
		out      = flag.String("o", "", "write the raw text image here")
		symbols  = flag.Bool("symbols", false, "print the symbol table")
		disasm   = flag.Bool("disasm", true, "print the disassembly")
	)
	flag.Parse()
	var prog *asm.Program
	switch {
	case *workload != "":
		spec, ok := bench.ByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		sc, err := bench.ParseScale(*scale)
		if err != nil {
			return err
		}
		built, err := spec.Build(soc.UserAsmConfig(), sc)
		if err != nil {
			return err
		}
		prog = built.Program
	case *assemble != "":
		src, err := os.ReadFile(*assemble)
		if err != nil {
			return err
		}
		prog, err = asm.Assemble(*assemble, string(src),
			asm.Config{TextBase: uint32(*textBase), DataBase: uint32(*dataBase)})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -assemble file.s or -workload name")
	}
	fmt.Printf("%s: %d instruction words, %d data bytes, entry %#x\n",
		prog.Name, prog.TextWords(), len(prog.Data), prog.Entry)
	if *symbols {
		for _, name := range prog.SymbolNames() {
			fmt.Printf("  %08x  %s\n", prog.Symbols[name], name)
		}
	}
	if *disasm {
		fmt.Print(asm.Disassemble(prog))
	}
	if *out != "" {
		if err := os.WriteFile(*out, prog.Text, 0o644); err != nil {
			return err
		}
	}
	return nil
}
