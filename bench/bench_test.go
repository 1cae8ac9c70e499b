package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bpar/internal/prof"
	"bpar/internal/rng"
	"bpar/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // unsorted on purpose
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.9, 7},
		{"median of ten is the 5th", ten, 0.5, 5},
		{"p90 of ten is the 9th", ten, 0.9, 9},
		{"p91 of ten is the 10th", ten, 0.91, 10},
		{"p100 is the max", ten, 1, 10},
		{"tiny q is the min", ten, 0.001, 1},
		{"never interpolates", []float64{1, 100}, 0.75, 100},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("%s: percentile(q=%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(ten[:3], []float64{10, 1, 9}) {
		t.Error("percentile sorted its argument in place")
	}
}

func TestWindowRate(t *testing.T) {
	sec := func(xs ...float64) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x * float64(time.Second))
		}
		return out
	}
	steady := sec(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	// Same count, but the second window stalled: one burst must not move the median.
	burst := sec(1, 2, 3.9, 3.95, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		name    string
		done    []time.Duration
		span    time.Duration
		windows int
		want    float64
	}{
		{"none", nil, 10 * time.Second, 5, 0},
		{"steady one per second", steady, 10 * time.Second, 5, 1},
		{"one stalled window", burst, 10 * time.Second, 5, 1},
		// Half-second steps: a window holding "5 or 6" completions still reads 2/s.
		{"not quantised", sec(0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5), 5500 * time.Millisecond, 5, 2},
		{"completion after the span belongs to the last window", sec(1, 2, 3, 4, 5.5), 5 * time.Second, 5, 1},
	}
	for _, c := range cases {
		if got := windowRate(c.done, c.span, c.windows); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: windowRate = %g, want %g", c.name, got, c.want)
		}
	}
	// Three of five windows empty: the median says the phase mostly stood still.
	if got := windowRate(sec(0.1, 0.2, 9.9), 10*time.Second, 5); got != 0 {
		t.Errorf("mostly idle phase: windowRate = %g, want 0", got)
	}
}

func TestParsePrometheus(t *testing.T) {
	text := `# HELP bpar_serve_stage_seconds Per-stage request timing.
# TYPE bpar_serve_stage_seconds histogram
bpar_serve_stage_seconds_bucket{stage="compute",le="0.005"} 3
bpar_serve_stage_seconds_bucket{stage="compute",le="+Inf"} 7
bpar_serve_stage_seconds_sum{stage="compute"} 0.35
bpar_serve_stage_seconds_count{stage="compute"} 7
bpar_serve_batches_total 12
bpar_odd{note="two words"} 1.5e-3

`
	got, err := parsePrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	want := samples{
		`bpar_serve_stage_seconds_bucket{stage="compute",le="0.005"}`: 3,
		`bpar_serve_stage_seconds_bucket{stage="compute",le="+Inf"}`:  7,
		`bpar_serve_stage_seconds_sum{stage="compute"}`:               0.35,
		`bpar_serve_stage_seconds_count{stage="compute"}`:             7,
		`bpar_serve_batches_total`:                                    12,
		`bpar_odd{note="two words"}`:                                  0.0015,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v\nwant   %v", got, want)
	}
	for _, bad := range []string{"novalue", "name notanumber"} {
		if _, err := parsePrometheus(bad); err == nil {
			t.Errorf("parsePrometheus(%q) accepted a malformed line", bad)
		}
	}

	before := samples{`h_sum{stage="compute"}`: 0.35, `h_count{stage="compute"}`: 7}
	after := samples{`h_sum{stage="compute"}`: 0.95, `h_count{stage="compute"}`: 10, `late_total`: 4}
	if got := meanOf(after, before, "h", `{stage="compute"}`); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("meanOf = %g, want 0.2 (Δsum 0.6 over Δcount 3)", got)
	}
	if got := meanOf(before, before, "h", `{stage="compute"}`); got != 0 {
		t.Errorf("meanOf over an empty interval = %g, want 0", got)
	}
	if got := delta(after, before, "late_total"); got != 4 {
		t.Errorf("delta of a series registered after the first scrape = %g, want 4", got)
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	const rate, d = 200.0, 5 * time.Second
	a := poissonSchedule(rng.New(7), rate, d)
	b := poissonSchedule(rng.New(7), rate, d)
	c := poissonSchedule(rng.New(8), rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave one schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("schedule is not ascending")
	}
	if len(a) == 0 || a[len(a)-1] >= d {
		t.Errorf("schedule of %d arrivals ends at %v, want inside %v", len(a), a[len(a)-1], d)
	}
	// 1000 expected arrivals, σ ≈ 32.
	if n := float64(len(a)); math.Abs(n-rate*d.Seconds()) > 160 {
		t.Errorf("%g arrivals at %g/s over %v", n, rate, d)
	}
}

func TestMixedLensAreFixedAndSpread(t *testing.T) {
	a, b := mixedLens(32, 10, 100), mixedLens(32, 10, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("mixedLens is not fixed")
	}
	s := append([]int(nil), a...)
	sort.Ints(s)
	if s[0] != 10 || s[31] != 100 {
		t.Errorf("lengths span [%d, %d], want [10, 100]", s[0], s[31])
	}
	for i := 1; i < len(s); i++ {
		if gap := s[i] - s[i-1]; gap < 2 || gap > 3 {
			t.Errorf("sorted lengths %d and %d are %d apart, want an even spread", s[i-1], s[i], gap)
		}
	}
	if sort.IntsAreSorted(a) {
		t.Error("lengths are in order: neighbours would always share a bucket")
	}
}

func e2e(pairs ...any) metrics {
	m := metrics{}
	for i := 0; i < len(pairs); i += 2 {
		m.set(pairs[i].(string), pairs[i+1].(float64), "x")
	}
	return m
}

func TestCompareVerdicts(t *testing.T) {
	old := &report{Procs: 2, Workloads: map[string]*workloadReport{
		"train": {EndToEnd: e2e("steps_per_s", 100.0, "step_ms_p50", 10.0, "setup_s", 1.0, "fail_frac", 0.0, "heap_inuse_mb", 100.0)},
		"serve": {EndToEnd: e2e("lat_p50_ms", 40.0, "lat_p90_ms", 60.0, "sat_qps", 30.0, "open_p50_ms", 50.0, "fail_frac", 0.0)},
	}}
	cases := []struct {
		name     string
		workload string
		metric   string
		value    float64
		want     int
	}{
		{"identical", "train", "steps_per_s", 100, 0},
		{"throughput inside its bound", "train", "steps_per_s", 76, 0},
		{"throughput beyond its bound", "train", "steps_per_s", 74, 1},
		{"a gain is never a regression", "train", "steps_per_s", 150, 0},
		{"latency inside its bound", "train", "step_ms_p50", 12.4, 0},
		{"latency beyond its bound", "train", "step_ms_p50", 12.6, 1},
		{"set-up has the widest bound", "train", "setup_s", 1.29, 0},
		{"set-up beyond it", "train", "setup_s", 1.31, 1},
		{"one failure in a thousand is tolerated", "train", "fail_frac", 0.001, 0},
		{"a rise in fail_frac regresses", "serve", "fail_frac", 0.01, 1},
		{"tail inside its bound", "serve", "lat_p90_ms", 74, 0},
		{"tail beyond it", "serve", "lat_p90_ms", 76, 1},
		{"saturated rate beyond its bound", "serve", "sat_qps", 22, 1},
		{"open-loop median beyond its bound", "serve", "open_p50_ms", 63, 1},
		{"heap beyond its bound", "train", "heap_inuse_mb", 116, 1},
	}
	for _, c := range cases {
		new := &report{Procs: 2, Workloads: map[string]*workloadReport{}}
		for name, w := range old.Workloads {
			cp := metrics{}
			for k, v := range w.EndToEnd {
				cp[k] = v
			}
			new.Workloads[name] = &workloadReport{EndToEnd: cp}
		}
		new.Workloads[c.workload].EndToEnd.set(c.metric, c.value, "x")
		var out bytes.Buffer
		got, err := compareReports(old, new, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: %d regressions, want %d\n%s", c.name, got, c.want, out.String())
		}
		if c.want == 1 && !strings.Contains(out.String(), "REGRESSED") {
			t.Errorf("%s: no row says REGRESSED:\n%s", c.name, out.String())
		}
	}

	lost := &report{Procs: 2, Workloads: map[string]*workloadReport{"train": {EndToEnd: e2e("steps_per_s", 100.0)}}}
	var out bytes.Buffer
	if n, _ := compareReports(old, lost, &out); n == 0 {
		t.Error("a new point that lost metrics and a workload compared clean")
	}
	if _, err := compareReports(old, &report{Procs: 4}, &out); err == nil {
		t.Error("compare accepted points with different procs")
	}
}

// stubSender answers every request with one canned response.
func stubSender(code int, resp serve.InferResponse) sender {
	raw, _ := json.Marshal(resp)
	return func([]byte) (int, []byte, error) { return code, raw, nil }
}

func TestOracleReportsACorruptedAnswer(t *testing.T) {
	probs := [][]float64{{0.25, 0.75}}
	resp := serve.InferResponse{Results: []serve.SequenceResult{{SeqLen: 3, Probs: probs}}}
	good := payload{want: []answer{{probs}}}
	off := payload{want: []answer{{[][]float64{{0.25, math.Nextafter(0.75, 1)}}}}} // one bit
	cases := []struct {
		name    string
		send    sender
		p       payload
		tol     float64
		wantBad int
	}{
		{"right answer, bitwise", stubSender(http.StatusOK, resp), good, 0, 0},
		{"one bit off, bitwise", stubSender(http.StatusOK, resp), off, 0, 3},
		{"one bit off, within tolerance", stubSender(http.StatusOK, resp), off, 1e-4, 0},
		{"far off, within tolerance", stubSender(http.StatusOK, resp), payload{want: []answer{{[][]float64{{0.25, 0.7}}}}}, 1e-4, 3},
		{"NaN never matches", stubSender(http.StatusOK, resp), payload{want: []answer{{[][]float64{{0.25, math.NaN()}}}}}, 1e-4, 3},
		{"wrong shape", stubSender(http.StatusOK, resp), payload{want: []answer{{probs, probs}}}, 0, 3},
		{"refused", stubSender(http.StatusTooManyRequests, resp), good, 0, 3},
	}
	for _, c := range cases {
		tgt := &target{send: c.send, payloads: []payload{c.p, c.p, c.p}, tol: c.tol}
		ph := warmUp(tgt) // one pass through the three payloads
		if ph.attempted != 3 || ph.failed != c.wantBad {
			t.Errorf("%s: attempted %d failed %d, want 3 and %d", c.name, ph.attempted, ph.failed, c.wantBad)
		}
		if len(ph.latMS) != 3-c.wantBad {
			t.Errorf("%s: %d latencies, want only the %d good answers", c.name, len(ph.latMS), 3-c.wantBad)
		}
	}

	// Multi-head answers come back per head.
	mh := serve.InferResponse{Results: []serve.SequenceResult{{Heads: []serve.HeadResult{{Kind: "classify", Probs: probs}, {Kind: "tag", Probs: [][]float64{{1, 0}, {0, 1}}}}}}}
	tgt := &target{send: stubSender(http.StatusOK, mh), payloads: []payload{{want: []answer{{probs, {{1, 0}, {0, 1}}}}}}}
	if !tgt.do(0) {
		t.Error("a right two-head answer was reported wrong")
	}
}

func TestLossMismatches(t *testing.T) {
	want := []float64{2.5, 2.25, 2}
	cases := []struct {
		got  []float64
		want int
	}{
		{[]float64{2.5, 2.25, 2, 1.9}, 0},
		{[]float64{2.5, math.Nextafter(2.25, 3), 2}, 1},
		{[]float64{2.5}, 2},
		{nil, 3},
	}
	for _, c := range cases {
		if got := lossMismatches(c.got, want); got != c.want {
			t.Errorf("lossMismatches(%v) = %d, want %d", c.got, got, c.want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, 20 ms of service, three arrivals due at once: the second
	// and third leave late, and their latency counts the wait.
	slow := func([]byte) (int, []byte, error) {
		time.Sleep(20 * time.Millisecond)
		raw, _ := json.Marshal(serve.InferResponse{})
		return http.StatusOK, raw, nil
	}
	tgt := &target{send: slow, payloads: []payload{{}}}
	ph := openLoop(tgt, 1, []time.Duration{0, 0, 0})
	if ph.attempted != 3 || ph.failed != 0 {
		t.Fatalf("attempted %d failed %d", ph.attempted, ph.failed)
	}
	if ph.latMS[2] < 55 || ph.lateMS[2] < 35 {
		t.Errorf("third request: latency %.1f ms, left %.1f ms late; want about 60 and 40", ph.latMS[2], ph.lateMS[2])
	}
}

func TestProfileDeltaSubtractsWarmUpAndFoldsKinds(t *testing.T) {
	node := func(kind string, sum int64, start, end int64, preds ...int32) prof.NodeData {
		return prof.NodeData{Kind: kind, SumNS: sum, LastStartNS: start, LastEndNS: end, Preds: preds}
	}
	// A three-node chain proj → lstm → lstm-bwd. One warm-up replay before
	// the segment, two replays of 1+2+3 ms inside it.
	before := &prof.ProfileData{Workers: 1, Templates: []prof.TemplateData{{
		Name: "train T=1", Replays: 1, ElapsedSumNS: 50e6,
		Nodes: []prof.NodeData{node("proj", 10e6, 0, 0), node("lstm", 20e6, 0, 0, 0), node("lstm-bwd", 20e6, 0, 0, 1)},
	}}}
	after := &prof.ProfileData{Workers: 1, Templates: []prof.TemplateData{{
		Name: "train T=1", Replays: 3, ElapsedSumNS: 50e6 + 14e6, ReplayStartNS: 100e6, LastElapsedNS: 7e6, LastWorkNS: 6e6,
		Nodes: []prof.NodeData{node("proj", 12e6, 100e6, 101e6), node("lstm", 24e6, 101e6, 103e6, 0), node("lstm-bwd", 26e6, 103e6, 106e6, 1)},
	}}}
	s := profileDelta(after, before)
	if s.replays != 2 {
		t.Fatalf("replays = %d, want 2", s.replays)
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	near("span_ms", s.spanMS, 6)
	near("work_ms", s.workMS, 6)
	near("elapsed_ms", s.elapsedMS, 7)
	near("util", s.util, 6.0/7)
	near("kind cell", s.kindMS["cell"], 2)
	near("kind cell-bwd", s.kindMS["cell-bwd"], 3)
	near("kind proj", s.kindMS["proj"], 1)
	if after.Templates[0].Nodes[0].SumNS != 12e6 {
		t.Error("profileDelta changed the caller's snapshot")
	}
}

// benchmarkFile is BENCHMARK.json as the contract reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, code has %q (or their whys differ)", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of at most 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the code", len(f.EndToEnd), len(endToEnd))
	}
	for i, e := range endToEnd {
		d := f.EndToEnd[i]
		if d.Name != e.name || d.Unit != e.unit {
			t.Errorf("end-to-end %d: declared %s [%s], code has %s [%s]", i, d.Name, d.Unit, e.name, e.unit)
		}
		// The contract's bound is the -compare bound of the metrics the
		// name is read from, capped at the contract's 0.25.
		for _, from := range []string{e.train, e.serve} {
			for _, b := range bounds {
				if b.name != from {
					continue
				}
				if want := math.Min(b.rel, 0.25); d.Bound != want {
					t.Errorf("%s: declared bound %g, -compare allows %s %g", d.Name, d.Bound, from, want)
				}
				if (d.Better == "higher") != b.higherBetter {
					t.Errorf("%s: declared better=%s, -compare treats %s otherwise", d.Name, d.Better, from)
				}
			}
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the code", len(f.PerLayer), len(perLayer))
	}
	for i, p := range perLayer {
		if f.PerLayer[i].Name != p.name || f.PerLayer[i].Unit != p.unit {
			t.Errorf("per-layer %d: declared %s [%s], code has %s [%s]", i, f.PerLayer[i].Name, f.PerLayer[i].Unit, p.name, p.unit)
		}
	}
}

func TestContractMetricsCoverEveryDeclaredName(t *testing.T) {
	train, srv := workloadByName("train_b1_t100"), workloadByName("serve_mh_mixed")
	got := contractMetrics(train, e2e("setup_s", 1.0, "steps_per_s", 2.0, "step_ms_p50", 3.0, "step_ms_p90", 4.0, "heap_inuse_mb", 5.0), false)
	if len(got) != len(endToEnd) || got["ops_per_s"].Value != 2 || got["op_ms_p90"].Value != 4 {
		t.Errorf("train projection: %v", got)
	}
	got = contractMetrics(srv, e2e("setup_s", 1.0, "sat_qps", 2.0, "lat_p50_ms", 3.0, "lat_p90_ms", 4.0, "heap_inuse_mb", 5.0), false)
	if len(got) != len(endToEnd) || got["ops_per_s"].Value != 2 || got["op_ms_p50"].Value != 3 {
		t.Errorf("serve projection: %v", got)
	}
	for name, v := range got {
		if v.Value == 0 {
			t.Errorf("end-to-end %s reads 0", name)
		}
	}
	layers := contractMetrics(train, e2e("core.span_ms", 9.0), true)
	if len(layers) != len(perLayer) || layers["core.span_ms"].Value != 9 || layers["serve.net_ms"].Unit != "ms" {
		t.Errorf("per-layer projection has %d names, want %d", len(layers), len(perLayer))
	}
}
