package prof

import (
	"bytes"
	"strings"
	"testing"
)

// TestCalibrateSingleCore pins the calibration mechanism on a case with a
// closed-form answer: on one core the simulated makespan of any DAG is the
// sum of its (measured mean) durations, so a template whose recorded elapsed
// time equals its work calibrates to zero relative error.
func TestCalibrateSingleCore(t *testing.T) {
	// Diamond with 2 replays: means are 50/250/100/50 ns, work = 450ns.
	td := &TemplateData{
		Name: "golden", Replays: 2,
		Nodes: []NodeData{
			{Label: "a", Kind: "k", SumNS: 100},
			{Label: "b", Kind: "k", SumNS: 500, Preds: []int32{0}},
			{Label: "c", Kind: "k", SumNS: 200, Preds: []int32{0}},
			{Label: "d", Kind: "k", SumNS: 100, Preds: []int32{1, 2}},
		},
		ElapsedSumNS: 900, // mean 450ns == single-core makespan
	}
	c, err := Calibrate(td, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeasuredNS != 450 {
		t.Fatalf("measured %v, want 450", c.MeasuredNS)
	}
	if diff := c.SimulatedNS - 450; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("simulated %v, want 450", c.SimulatedNS)
	}
	if c.RelErr > 1e-9 {
		t.Fatalf("rel err %v, want ~0", c.RelErr)
	}

	var buf bytes.Buffer
	pd := &ProfileData{Version: DumpVersion, Workers: 1, Templates: []TemplateData{*td}}
	if err := WriteCalibration(&buf, pd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "golden") {
		t.Fatalf("calibration report missing template name:\n%s", buf.String())
	}
}

func TestCalibrateRejectsEmpty(t *testing.T) {
	if _, err := Calibrate(&TemplateData{Name: "empty"}, 1); err == nil {
		t.Fatal("zero-replay template accepted")
	}
	if _, err := Calibrate(&TemplateData{Name: "w", Replays: 1}, 0); err == nil {
		t.Fatal("zero workers accepted")
	}
}
