package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one measured value. N is the sample count behind a timing or a
// percentile (0 when the value is a count, a ratio or a single reading).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) setN(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// val reads a metric that may be absent (a layer the workload does not have).
func (m metrics) val(name string) float64 { return m[name].Value }

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// print lists every metric by name with its unit, one per line.
func (m metrics) print(w io.Writer, prefix string) {
	for _, k := range m.names() {
		v := m[k]
		if v.N > 0 {
			fmt.Fprintf(w, "%s%-34s %14.6g %-6s n=%d\n", prefix, k, v.Value, v.Unit, v.N)
		} else {
			fmt.Fprintf(w, "%s%-34s %14.6g %s\n", prefix, k, v.Value, v.Unit)
		}
	}
}

// result is one pass (untraced or traced) of one workload.
type result struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// reportVersion identifies the trajectory-file layout -compare reads.
const reportVersion = 1

// report is one trajectory point: every workload's end-to-end metrics from
// the untraced pass and per-layer metrics from the traced pass.
type report struct {
	Version   int                        `json:"version"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Procs     int                        `json:"procs"`
	NumCPU    int                        `json:"num_cpu"`
	GoVersion string                     `json:"go_version"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer"`
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Version != reportVersion {
		return nil, fmt.Errorf("%s: report version %d, this benchmark reads %d", path, r.Version, reportVersion)
	}
	return &r, nil
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
