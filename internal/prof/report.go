package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// groupKey buckets critical-path nodes the way the paper discusses them:
// what kind of task, in which layer, going which direction.
type groupKey struct {
	kind  string
	layer int // -1 when the label names no layer
	dir   string
}

func (k groupKey) String() string {
	layer := "-"
	if k.layer >= 0 {
		layer = strconv.Itoa(k.layer)
	}
	return fmt.Sprintf("%-10s L%-3s %-4s", k.kind, layer, k.dir)
}

// parseLabel extracts the layer ("L<digits>" token) and direction (fwd/rev
// token, also matching fwd-bwd, rev-bwd, proj-fwd, dw-rev, ...) from a task
// label like "rev-bwd L2 t17 mb0".
func parseLabel(label string) (layer int, dir string) {
	layer, dir = -1, "-"
	for _, tok := range strings.Fields(label) {
		if len(tok) > 1 && tok[0] == 'L' {
			if v, err := strconv.Atoi(tok[1:]); err == nil {
				layer = v
				continue
			}
		}
		if dir == "-" {
			switch {
			case strings.Contains(tok, "fwd"):
				dir = "fwd"
			case strings.Contains(tok, "rev"):
				dir = "rev"
			}
		}
	}
	return layer, dir
}

// WriteReport renders the full profile report: per template, the measured
// span/work/parallelism, the top critical-path contributors grouped by task
// kind/layer/direction, a slack table, and the per-worker idle attribution
// over the dump's recorded worker count. topK bounds the contributor and
// slack tables (default 10).
func WriteReport(w io.Writer, pd *ProfileData, topK int) {
	if topK <= 0 {
		topK = 10
	}
	fmt.Fprintf(w, "profile: %d template(s), %d worker(s)", len(pd.Templates), pd.Workers)
	if pd.SchedOverheadRatio > 0 {
		fmt.Fprintf(w, ", runtime overhead/useful work %.4f (paper bound: <0.10)", pd.SchedOverheadRatio)
	}
	fmt.Fprintln(w)
	for ti := range pd.Templates {
		td := &pd.Templates[ti]
		writeTemplateReport(w, td, Analyze(td, pd.Workers), topK)
	}
}

func writeTemplateReport(w io.Writer, td *TemplateData, a *Analysis, topK int) {
	fmt.Fprintf(w, "\ntemplate %q: %d nodes, %d replays\n", a.Name, len(td.Nodes), a.Replays)
	if a.Replays == 0 {
		fmt.Fprintf(w, "  no completed replays profiled\n")
		return
	}
	fmt.Fprintf(w, "  span %s  work %s  attainable parallelism %.2f\n",
		fmtNS(a.SpanNS), fmtNS(a.WorkNS), a.Parallelism)
	fmt.Fprintf(w, "  last replay: elapsed %s (span/elapsed %.2f)", fmtNS(float64(a.ElapsedNS)),
		ratio(a.SpanNS, float64(a.ElapsedNS)))
	if a.Utilization > 0 {
		fmt.Fprintf(w, ", worker utilization %.1f%%", a.Utilization*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  critical path: %d of %d nodes\n", len(a.CritPath), len(td.Nodes))

	// Top critical-path contributors grouped by kind/layer/direction.
	type group struct {
		key   groupKey
		nodes int
		ns    float64
	}
	byKey := map[groupKey]*group{}
	for _, i := range a.CritPath {
		nd := &td.Nodes[i]
		layer, dir := parseLabel(nd.Label)
		k := groupKey{kind: nd.Kind, layer: layer, dir: dir}
		g := byKey[k]
		if g == nil {
			g = &group{key: k}
			byKey[k] = g
		}
		g.nodes++
		g.ns += float64(nd.SumNS) / float64(a.Replays)
	}
	groups := make([]*group, 0, len(byKey))
	for _, g := range byKey {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].ns != groups[j].ns {
			return groups[i].ns > groups[j].ns
		}
		return groups[i].key.String() < groups[j].key.String()
	})
	fmt.Fprintf(w, "  top critical-path contributors (kind / layer / direction):\n")
	for gi, g := range groups {
		if gi >= topK {
			fmt.Fprintf(w, "    ... %d more group(s)\n", len(groups)-gi)
			break
		}
		fmt.Fprintf(w, "    %s %4d node(s) %10s  %5.1f%% of span\n",
			g.key, g.nodes, fmtNS(g.ns), 100*ratio(g.ns, a.SpanNS))
	}

	// Slack table: off-path kinds with the least headroom first — the next
	// candidates to join the critical path if they slow down.
	type slackRow struct {
		kind    string
		nodes   int
		minNS   float64
		meanNS  float64
		totalNS float64
	}
	byKind := map[string]*slackRow{}
	for i := range td.Nodes {
		if a.Slack[i] == 0 {
			continue // on (or tied with) the critical path
		}
		nd := &td.Nodes[i]
		r := byKind[nd.Kind]
		if r == nil {
			r = &slackRow{kind: nd.Kind, minNS: a.Slack[i]}
			byKind[nd.Kind] = r
		}
		r.nodes++
		if a.Slack[i] < r.minNS {
			r.minNS = a.Slack[i]
		}
		r.meanNS += a.Slack[i]
		r.totalNS += float64(nd.SumNS) / float64(a.Replays)
	}
	rows := make([]*slackRow, 0, len(byKind))
	for _, r := range byKind {
		r.meanNS /= float64(r.nodes)
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].minNS != rows[j].minNS {
			return rows[i].minNS < rows[j].minNS
		}
		return rows[i].kind < rows[j].kind
	})
	fmt.Fprintf(w, "  slack of off-path kinds (min headroom first):\n")
	for ri, r := range rows {
		if ri >= topK {
			fmt.Fprintf(w, "    ... %d more kind(s)\n", len(rows)-ri)
			break
		}
		fmt.Fprintf(w, "    %-10s %5d node(s)  slack min %10s mean %10s  work %10s\n",
			r.kind, r.nodes, fmtNS(r.minNS), fmtNS(r.meanNS), fmtNS(r.totalNS))
	}

	// Idle attribution of the last replay.
	fmt.Fprintf(w, "  worker idle attribution (last replay):\n")
	for _, wi := range a.Idle {
		window := wi.BusyNS + wi.DepWaitNS + wi.SchedIdleNS
		if window == 0 {
			continue
		}
		fmt.Fprintf(w, "    worker %2d: %4d task(s)  busy %5.1f%%  dep-wait %5.1f%%  sched-idle %5.1f%%\n",
			wi.Worker, wi.Tasks,
			100*ratio(float64(wi.BusyNS), float64(window)),
			100*ratio(float64(wi.DepWaitNS), float64(window)),
			100*ratio(float64(wi.SchedIdleNS), float64(window)))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fmtNS renders nanoseconds with a human unit.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
