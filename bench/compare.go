package main

import (
	"fmt"
	"io"
	"sort"
)

// bound is how far one end-to-end metric may get worse between two
// trajectory points of the same host before -compare calls it a regression.
// rel is a share of the old value; abs is an absolute allowance, for a
// metric whose good value is 0.
type bound struct {
	name         string
	higherBetter bool
	rel, abs     float64
}

// bounds is the regression table, applied per (metric, workload) wherever
// the workload has the metric. The issue proposed 8% for rates and medians,
// 15% for tails and 10% for the open-loop median; repeated runs of one commit
// on the sizing host moved the medians of ten runs by 20-43% between a quiet
// and a busy half hour, so every timing is widened to 25%, the most the
// builder's contract lets a bound be. README.md records the runs.
var bounds = []bound{
	{name: "setup_s", rel: 0.30},
	{name: "steps_per_s", higherBetter: true, rel: 0.25},
	{name: "step_ms_p50", rel: 0.25},
	{name: "step_ms_p90", rel: 0.25},
	{name: "lat_p50_ms", rel: 0.25},
	{name: "lat_p90_ms", rel: 0.25},
	{name: "sat_qps", higherBetter: true, rel: 0.25},
	{name: "open_p50_ms", rel: 0.25},
	{name: "fail_frac", abs: 0.002},
	{name: "heap_inuse_mb", rel: 0.15},
}

// regressed reports whether new is worse than old by more than the bound.
func (b bound) regressed(old, new float64) bool {
	if b.higherBetter {
		return new < old*(1-b.rel)-b.abs
	}
	return new > old*(1+b.rel)+b.abs
}

// compareReports prints one row per (workload, metric) with both values and
// the ratio new÷old, and returns how many pairs regressed. A metric the old
// point has and the new one lost counts as regressed.
func compareReports(old, new *report, w io.Writer) (regressions int, err error) {
	if old.Procs != new.Procs {
		return 0, fmt.Errorf("procs differ (%d vs %d): the two points are not from comparable hosts", old.Procs, new.Procs)
	}
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %-14s %14s %14s %18s %10s  %s\n", "workload", "metric", "old", "new", "new/old (base old)", "allowed", "verdict")
	for _, name := range names {
		ow, nw := old.Workloads[name], new.Workloads[name]
		for _, b := range bounds {
			o, ok := ow.EndToEnd[b.name]
			if !ok {
				continue
			}
			allowed := fmt.Sprintf("%+.0f%%", 100*b.rel)
			if b.higherBetter {
				allowed = fmt.Sprintf("-%.0f%%", 100*b.rel)
			}
			if b.abs > 0 {
				allowed = fmt.Sprintf("+%g", b.abs)
			}
			newCol, rat, verdict := "-", "-", "REGRESSED (missing)"
			if nw != nil {
				if n, ok := nw.EndToEnd[b.name]; ok {
					newCol, verdict = fmt.Sprintf("%.6g", n.Value), "ok"
					if o.Value != 0 {
						rat = fmt.Sprintf("%.4f", n.Value/o.Value)
					}
					if b.regressed(o.Value, n.Value) {
						verdict = "REGRESSED"
					}
				}
			}
			if verdict != "ok" {
				regressions++
			}
			fmt.Fprintf(w, "%-22s %-14s %14.6g %14s %18s %10s  %s\n", name, b.name, o.Value, newCol, rat, allowed, verdict)
		}
	}
	return regressions, nil
}

func compareFiles(oldPath, newPath string, w io.Writer) int {
	n, err := func() (int, error) {
		old, err := readReport(oldPath)
		if err != nil {
			return 0, err
		}
		new, err := readReport(newPath)
		if err != nil {
			return 0, err
		}
		return compareReports(old, new, w)
	}()
	switch {
	case err != nil:
		fmt.Fprintln(w, "bench: compare:", err)
		return 2
	case n > 0:
		fmt.Fprintf(w, "%d regression(s)\n", n)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
