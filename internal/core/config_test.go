package core

import (
	"strings"
	"testing"
)

func validCfg() Config {
	return Config{
		Cell: LSTM, Arch: ManyToOne, Merge: MergeSum,
		InputSize: 4, HiddenSize: 5, Layers: 2, SeqLen: 3,
		Batch: 6, Classes: 3, MiniBatches: 1, Seed: 1,
	}
}

func TestConfigValidateAccepts(t *testing.T) {
	if err := validCfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.InputSize = 0 }, "InputSize"},
		{func(c *Config) { c.HiddenSize = -1 }, "HiddenSize"},
		{func(c *Config) { c.Layers = 0 }, "Layers"},
		{func(c *Config) { c.SeqLen = 0 }, "SeqLen"},
		{func(c *Config) { c.Batch = 0 }, "Batch"},
		{func(c *Config) { c.Classes = 0 }, "Classes"},
		{func(c *Config) { c.MiniBatches = 0 }, "MiniBatches"},
		{func(c *Config) { c.MiniBatches = 100 }, "MiniBatches"},
		{func(c *Config) { c.Cell = CellKind(9) }, "cell"},
		{func(c *Config) { c.Arch = Arch(9) }, "arch"},
		{func(c *Config) { c.Merge = MergeOp(9) }, "merge"},
	}
	for i, tc := range cases {
		c := validCfg()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Fatalf("case %d: expected error", i)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q lacks %q", i, err, tc.want)
		}
	}
}

// TestParamCountsMatchPaperTables pins the parameter counts of every
// configuration row in Tables III and IV (sum merge, 6 layers).
func TestParamCountsMatchPaperTables(t *testing.T) {
	mk := func(cell CellKind, in, hid int) Config {
		return Config{Cell: cell, Arch: ManyToOne, Merge: MergeSum,
			InputSize: in, HiddenSize: hid, Layers: 6, SeqLen: 100,
			Batch: 128, Classes: 10, MiniBatches: 1}
	}
	cases := []struct {
		cell     CellKind
		in, hid  int
		paperMil float64 // the paper's "Parameters" column, in millions
	}{
		{LSTM, 64, 256, 5.9},
		{LSTM, 256, 256, 6.3},
		{LSTM, 1024, 256, 7.8},
		{LSTM, 64, 1024, 92.8},
		{LSTM, 256, 1024, 94.4},
		{LSTM, 1024, 1024, 100.7},
		{GRU, 64, 256, 4.4},
		{GRU, 256, 256, 4.7},
		{GRU, 1024, 256, 5.9},
		{GRU, 64, 1024, 69.6},
		{GRU, 256, 1024, 70.8},
		{GRU, 1024, 1024, 75.5},
	}
	for _, tc := range cases {
		got := float64(mk(tc.cell, tc.in, tc.hid).ParamCount()) / 1e6
		// Within 1% of the paper's rounded millions.
		if got < tc.paperMil*0.99 || got > tc.paperMil*1.01 {
			t.Errorf("%v in=%d hid=%d: %0.2fM params, paper says %gM", tc.cell, tc.in, tc.hid, got, tc.paperMil)
		}
	}
}

func TestMergeDimAndLayerInput(t *testing.T) {
	c := validCfg()
	if c.MergeDim() != c.HiddenSize {
		t.Fatal("sum merge dim must equal hidden")
	}
	c.Merge = MergeConcat
	if c.MergeDim() != 2*c.HiddenSize {
		t.Fatal("concat merge dim must be 2*hidden")
	}
	if c.LayerInputSize(0) != c.InputSize || c.LayerInputSize(1) != c.MergeDim() {
		t.Fatal("layer input sizes wrong")
	}
}

func TestEnumStrings(t *testing.T) {
	if LSTM.String() != "LSTM" || GRU.String() != "GRU" || RNN.String() != "RNN" || CellKind(-1).String() != "CellKind(-1)" {
		t.Fatal("cell names")
	}
	for _, k := range []CellKind{LSTM, GRU, RNN} {
		if got, err := ParseCellKind(strings.ToLower(k.String())); got != k || err != nil {
			t.Fatalf("ParseCellKind(%q) = %v, %v", strings.ToLower(k.String()), got, err)
		}
	}
	if _, err := ParseCellKind("LSTM"); err == nil || err.Error() != `unknown cell "LSTM"` {
		t.Fatalf("ParseCellKind accepted or misreported an upper-case spelling: %v", err)
	}
	for _, k := range []HeadKind{HeadClassify, HeadTag, HeadGenerate} {
		if got, err := ParseHeadKind(k.String()); got != k || err != nil {
			t.Fatalf("ParseHeadKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseHeadKind("regress"); err == nil || err.Error() != `unknown head kind "regress" (want classify, tag, or generate)` {
		t.Fatalf("ParseHeadKind accepted or misreported an unknown kind: %v", err)
	}
	if HeadKind(3).String() != "HeadKind(3)" {
		t.Fatal("out-of-range head name")
	}
	if ManyToOne.String() != "many-to-one" || ManyToMany.String() != "many-to-many" || Arch(2).String() != "Arch(2)" {
		t.Fatal("arch names")
	}
	for _, m := range []MergeOp{MergeSum, MergeAvg, MergeMul, MergeConcat} {
		if m.String() == "" || strings.HasPrefix(m.String(), "MergeOp") {
			t.Fatal("merge names")
		}
	}
	if MergeOp(-1).String() != "MergeOp(-1)" {
		t.Fatal("out-of-range merge name")
	}
	if !strings.Contains(validCfg().String(), "LSTM") {
		t.Fatal("config string")
	}
}

func TestHeadParamCount(t *testing.T) {
	c := validCfg()
	if c.HeadParamCount() != c.Classes*c.HiddenSize+c.Classes {
		t.Fatal("head params")
	}
}
