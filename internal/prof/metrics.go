package prof

import (
	"bpar/internal/obs"
)

// RegisterMetrics exposes the profiler's rollups on reg as bpar_prof_*
// gauges. Scrapes read only the atomics ReplayDone maintains — never the
// per-node arrays a replay in flight is writing — so scraping mid-step is
// safe and free for the hot path. The span/work/elapsed gauges describe the
// most recently completed replay across all templates; workers, the
// runtime's worker count, sizes the overhead ratio.
func RegisterMetrics(reg *obs.Registry, p *GraphProfiler, workers int) {
	last := func(f func(tp *tplProf) float64) func() float64 {
		return func() float64 {
			tp := p.lastDone.Load()
			if tp == nil {
				return 0
			}
			return f(tp)
		}
	}
	reg.MustCounterFunc("bpar_prof_replays_total",
		"Template replays folded into the profile.",
		func() float64 { return float64(p.Replays()) })
	reg.MustGaugeFunc("bpar_prof_templates",
		"Distinct templates the profiler has observed.",
		func() float64 { return float64(p.Templates()) })
	reg.MustGaugeFunc("bpar_prof_span_ns",
		"Measured critical path of the last completed replay: the longest dependency chain by that replay's node durations.",
		last(func(tp *tplProf) float64 { return float64(tp.lastSpanNS.Load()) }))
	reg.MustGaugeFunc("bpar_prof_work_ns",
		"Summed node durations of the last completed replay.",
		last(func(tp *tplProf) float64 { return float64(tp.lastWorkNS.Load()) }))
	reg.MustGaugeFunc("bpar_prof_elapsed_ns",
		"Submit-to-drain wall time of the last completed replay.",
		last(func(tp *tplProf) float64 { return float64(tp.lastElapsedNS.Load()) }))
	reg.MustGaugeFunc("bpar_prof_parallelism",
		"Attainable parallelism of the last completed replay: work over span.",
		last(func(tp *tplProf) float64 {
			span := tp.lastSpanNS.Load()
			if span == 0 {
				return 0
			}
			return float64(tp.lastWorkNS.Load()) / float64(span)
		}))
	reg.MustGaugeFunc("bpar_prof_overhead_ratio",
		"Non-compute fraction of the worker pool during the last completed replay: 1 - work/(workers*elapsed). Bundles scheduling overhead and idle gaps; the paper keeps pure runtime overhead below 0.10.",
		last(func(tp *tplProf) float64 {
			denom := float64(workers) * float64(tp.lastElapsedNS.Load())
			if denom == 0 {
				return 0
			}
			r := 1 - float64(tp.lastWorkNS.Load())/denom
			if r < 0 {
				return 0
			}
			return r
		}))
}
