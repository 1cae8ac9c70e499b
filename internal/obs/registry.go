// Package obs is the live telemetry layer: a zero-dependency metric
// registry (atomic counters, gauges, and histograms) with Prometheus
// text-format exposition, an HTTP mux serving /metrics, /healthz, and the
// standard pprof endpoints, and slog-based structured logging helpers.
//
// The post-hoc instruments (internal/prof, taskrt.Stats) answer "what
// happened during that run"; obs answers "what is happening right now".
// Hot-path recording never takes a shared lock: counters and gauges are
// single atomics, histograms one atomic per bucket, and the
// scheduler gauges snapshot taskrt's existing atomic counters at scrape time
// instead of double-counting on the task path.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType is the Prometheus exposition TYPE of a metric family.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// labelPair is one constant label attached to a series at registration.
type labelPair struct{ k, v string }

// renderLabels formats label pairs as `{k="v",...}`, or "" when empty.
func renderLabels(pairs []labelPair) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// metric is one registered series; writeSamples emits its exposition lines.
type metric interface {
	writeSamples(w *bufio.Writer, fam string, labels []labelPair)
}

// family groups the series sharing one metric name.
type family struct {
	name, help string
	typ        metricType
	order      int // registration order of the family
	series     []registered
}

type registered struct {
	labels []labelPair
	m      metric
}

// Registry holds metric families and renders them in Prometheus text format.
// Registration panics on invalid or duplicate names (configuration errors);
// recording and scraping are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and stores one series under its family.
func (r *Registry) register(name, help string, typ metricType, labels []string, m metric) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q labels must be key/value pairs", name))
	}
	pairs := make([]labelPair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !labelRe.MatchString(labels[i]) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, labels[i]))
		}
		pairs = append(pairs, labelPair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })

	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, order: len(r.families)}
		r.families[name] = fam
	} else {
		if fam.typ != typ {
			panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, fam.typ, typ))
		}
		key := renderLabels(pairs)
		for _, s := range fam.series {
			if renderLabels(s.labels) == key {
				panic(fmt.Sprintf("obs: duplicate series %s%s", name, key))
			}
		}
	}
	fam.series = append(fam.series, registered{labels: pairs, m: m})
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.m.writeSamples(bw, f.name, s.labels)
		}
	}
	return bw.Flush()
}

// formatFloat renders a sample value; integral values print without exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeSamples(w *bufio.Writer, fam string, labels []labelPair) {
	fmt.Fprintf(w, "%s%s %d\n", fam, renderLabels(labels), c.v.Load())
}

// MustCounter registers and returns a counter. labels are constant key/value
// pairs distinguishing this series within the family.
func (r *Registry) MustCounter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, labels, c)
	return c
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFrom(g.bits.Load()) }

func (g *Gauge) writeSamples(w *bufio.Writer, fam string, labels []labelPair) {
	fmt.Fprintf(w, "%s%s %s\n", fam, renderLabels(labels), formatFloat(g.Value()))
}

// MustGauge registers and returns a gauge.
func (r *Registry) MustGauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, typeGauge, labels, g)
	return g
}

// funcMetric evaluates a callback at scrape time; used to snapshot state the
// owning subsystem already counts (e.g. taskrt.Stats) without re-counting.
type funcMetric struct {
	fn func() float64
}

func (f funcMetric) writeSamples(w *bufio.Writer, fam string, labels []labelPair) {
	fmt.Fprintf(w, "%s%s %s\n", fam, renderLabels(labels), formatFloat(f.fn()))
}

// MustGaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) MustGaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, typeGauge, labels, funcMetric{fn})
}

// MustCounterFunc registers a counter whose value is fn() at scrape time.
// fn must be monotonically non-decreasing.
func (r *Registry) MustCounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, typeCounter, labels, funcMetric{fn})
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }
