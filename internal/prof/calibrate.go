package prof

import (
	"fmt"
	"io"
	"math"

	"bpar/internal/costmodel"
	"bpar/internal/sim"
)

// Calibration compares the discrete-event simulator — fed the *measured*
// per-node durations instead of its cost model — against the measured step
// time. When the simulated makespan of the real graph with real durations
// lands near the real elapsed time, the only unvalidated simulator input
// left is the cost model itself, which is what makes the 48-core sweeps
// trustworthy extrapolations.
type Calibration struct {
	Name string
	// MeasuredNS is the mean measured submit-to-drain step time.
	MeasuredNS float64
	// SimulatedNS is the simulator's makespan on the same graph with the
	// measured mean node durations, on the same number of cores.
	SimulatedNS float64
	// RelErr is |Simulated-Measured|/Measured.
	RelErr float64
	// Workers is the core count both sides used.
	Workers int
}

// Calibrate replays td's frozen graph through the simulator with its
// measured mean node durations on `workers` cores and compares makespans.
// The simulator runs FIFO, the one policy taskrt.Runtime schedules with.
func Calibrate(td *TemplateData, workers int) (*Calibration, error) {
	if td.Replays == 0 {
		return nil, fmt.Errorf("prof: template %q has no profiled replays to calibrate against", td.Name)
	}
	if workers <= 0 {
		return nil, fmt.Errorf("prof: calibration needs the measured run's worker count")
	}
	machine := costmodel.XeonPlatinum8160x2()
	if workers > machine.Cores {
		machine.Cores = workers
	}
	res, err := sim.Run(td.Graph(), sim.Options{
		Machine:   machine,
		Cores:     workers,
		Policy:    sim.FIFO,
		Durations: td.MeanDurations(),
	})
	if err != nil {
		return nil, err
	}
	c := &Calibration{
		Name:        td.Name,
		MeasuredNS:  float64(td.ElapsedSumNS) / float64(td.Replays),
		SimulatedNS: res.MakespanSec * 1e9,
		Workers:     workers,
	}
	if c.MeasuredNS > 0 {
		c.RelErr = math.Abs(c.SimulatedNS-c.MeasuredNS) / c.MeasuredNS
	}
	return c, nil
}

// WriteCalibration renders calibration rows for every template in the dump,
// simulated on the dump's recorded worker count.
func WriteCalibration(w io.Writer, pd *ProfileData) error {
	fmt.Fprintf(w, "simulator calibration (measured durations on the recorded graph, %d cores):\n", pd.Workers)
	for ti := range pd.Templates {
		c, err := Calibrate(&pd.Templates[ti], pd.Workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16s measured %10s  simulated %10s  rel err %5.1f%%\n",
			c.Name, fmtNS(c.MeasuredNS), fmtNS(c.SimulatedNS), c.RelErr*100)
	}
	return nil
}
