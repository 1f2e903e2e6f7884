package main

import (
	"testing"

	"armsefi/internal/bench"
	"armsefi/internal/soc"
)

func TestParseScale(t *testing.T) {
	cases := map[string]bench.Scale{
		"tiny": bench.ScaleTiny, "small": bench.ScaleSmall, "paper": bench.ScalePaper,
	}
	for in, want := range cases {
		got, err := bench.ParseScale(in)
		if err != nil || got != want {
			t.Errorf("bench.ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := bench.ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestParsePreset(t *testing.T) {
	z, err := parsePreset("zynq")
	if err != nil || z.Name != "zynq" {
		t.Errorf("zynq preset: %v %v", z.Name, err)
	}
	g, err := parsePreset("gem5")
	if err != nil || g.Name != "gem5" {
		t.Errorf("gem5 preset: %v %v", g.Name, err)
	}
	if _, err := parsePreset("qemu"); err == nil {
		t.Error("bad preset accepted")
	}
}

func TestParseModel(t *testing.T) {
	if m, err := soc.ParseModel("atomic"); err != nil || m != soc.ModelAtomic {
		t.Error("atomic")
	}
	if m, err := soc.ParseModel("detailed"); err != nil || m != soc.ModelDetailed {
		t.Error("detailed")
	}
	if _, err := soc.ParseModel("rtl"); err == nil {
		t.Error("bad model accepted")
	}
}
