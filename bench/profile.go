package main

import "bpar/internal/prof"

// kinds are the task kinds core.kind_ms.<kind> reports. The engine labels
// chain cells by cell type ("lstm", "gru-bwd", ...); those fold into "cell"
// and "cell-bwd" so the names hold across workloads.
var kinds = []string{"proj", "cell", "cell-bwd", "dw", "dx", "merge", "merge-bwd", "head", "head-bwd", "reduce", "conv"}

func kindOf(taskKind string) string {
	switch taskKind {
	case "lstm", "gru", "rnn":
		return "cell"
	case "lstm-bwd", "gru-bwd", "rnn-bwd":
		return "cell-bwd"
	}
	return taskKind
}

// profSummary is the measured span/work study of the replays in one
// profiled segment: per-replay means, weighted by replay count when the
// segment replayed more than one template (one per length bucket).
type profSummary struct {
	replays       int64
	spanMS        float64
	workMS        float64
	elapsedMS     float64 // ReplayStart → ReplayDone, the engine's part of a step
	util          float64 // work ÷ (workers × elapsed)
	depWaitFrac   float64 // worker time idle with no task ready anywhere, last replay
	schedIdleFrac float64 // worker time idle while a task was ready, last replay
	kindMS        map[string]float64
	nodes         map[string]int // task count per kind in one replay (largest template)
}

// profileDelta analyses what the profiler accumulated between two snapshots
// of one runtime, so warm-up replays before the segment are not counted.
// Templates are matched by name: every runtime here captures each (kind, T)
// once.
func profileDelta(after, before *prof.ProfileData) *profSummary {
	prev := make(map[string]*prof.TemplateData)
	for i := range before.Templates {
		prev[before.Templates[i].Name] = &before.Templates[i]
	}
	s := &profSummary{kindMS: make(map[string]float64), nodes: make(map[string]int)}
	var span, work, elapsed, depWait, schedIdle float64
	biggest := 0
	for i := range after.Templates {
		td := after.Templates[i] // a copy: the caller's snapshot stays whole
		if p := prev[td.Name]; p != nil && len(p.Nodes) == len(td.Nodes) {
			td.Replays -= p.Replays
			td.ElapsedSumNS -= p.ElapsedSumNS
			nodes := append([]prof.NodeData(nil), td.Nodes...)
			for j := range nodes {
				nodes[j].SumNS -= p.Nodes[j].SumNS
			}
			td.Nodes = nodes
		}
		if td.Replays <= 0 {
			continue
		}
		a := prof.Analyze(&td, after.Workers)
		n := float64(td.Replays)
		s.replays += td.Replays
		span += a.SpanNS * n
		work += a.WorkNS * n
		elapsed += float64(td.ElapsedSumNS)
		window := float64(after.Workers) * float64(a.ElapsedNS)
		for _, wi := range a.Idle {
			depWait += ratio(float64(wi.DepWaitNS), window) * n
			schedIdle += ratio(float64(wi.SchedIdleNS), window) * n
		}
		for _, nd := range td.Nodes {
			s.kindMS[kindOf(nd.Kind)] += float64(nd.SumNS) / 1e6
		}
		if len(td.Nodes) > biggest {
			biggest = len(td.Nodes)
			s.nodes = make(map[string]int)
			for _, nd := range td.Nodes {
				s.nodes[kindOf(nd.Kind)]++
			}
		}
	}
	if s.replays == 0 {
		return s
	}
	n := float64(s.replays)
	s.spanMS, s.workMS, s.elapsedMS = span/n/1e6, work/n/1e6, elapsed/n/1e6
	s.util = ratio(s.workMS, float64(after.Workers)*s.elapsedMS)
	s.depWaitFrac, s.schedIdleFrac = depWait/n, schedIdle/n
	for k := range s.kindMS {
		s.kindMS[k] /= n
	}
	return s
}

// into writes the core.* profile metrics.
func (s *profSummary) into(m metrics) {
	m.setN("core.span_ms", s.spanMS, "ms", int(s.replays))
	m.setN("core.work_ms", s.workMS, "ms", int(s.replays))
	m.set("core.parallelism", ratio(s.workMS, s.spanMS), "ratio")
	m.setN("core.replay_elapsed_ms", s.elapsedMS, "ms", int(s.replays))
	m.set("core.util", s.util, "share")
	m.set("core.dep_wait_frac", s.depWaitFrac, "share")
	m.set("core.sched_idle_frac", s.schedIdleFrac, "share")
	for _, k := range kinds {
		if v, ok := s.kindMS[k]; ok {
			m.set("core.kind_ms."+k, v, "ms")
		}
	}
}
