package prof

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bpar/internal/obs"
	"bpar/internal/taskrt"
)

// buildTemplate captures a diamond-per-wave DAG of busy tasks: W independent
// chains of length 3 joined by a final reduce node.
func buildTemplate(t *testing.T, chains int, counter *atomic.Int64) *taskrt.Template {
	t.Helper()
	rec := taskrt.NewCapture()
	body := func() {
		counter.Add(1)
		busy := time.Now()
		for time.Since(busy) < 50*time.Microsecond {
		}
	}
	for c := 0; c < chains; c++ {
		key := c
		for s := 0; s < 3; s++ {
			rec.Submit(&taskrt.Task{
				Label: "fwd L0 t0 mb0", Kind: "lstm",
				InOut: []taskrt.Dep{key},
				Fn:    body,
			})
		}
	}
	deps := make([]taskrt.Dep, chains)
	for c := range deps {
		deps[c] = c
	}
	rec.Submit(&taskrt.Task{Label: "reduce L0 dir0", Kind: "reduce", In: deps, Fn: body})
	tpl := rec.Freeze()
	tpl.Name = "test-diamond"
	return tpl
}

// TestEndToEnd profiles real replays on the native runtime and checks the
// resulting dump, analysis, report, and chrome trace line up.
func TestEndToEnd(t *testing.T) {
	p := NewGraphProfiler()
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	rt := taskrt.New(taskrt.Options{Workers: workers, Profile: p})
	defer rt.Shutdown()

	var counter atomic.Int64
	const chains, replays = 4, 5
	tpl := buildTemplate(t, chains, &counter)
	for r := 0; r < replays; r++ {
		rt.Replay(tpl)
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter.Load(); got != int64(replays*(3*chains+1)) {
		t.Fatalf("bodies ran %d times, want %d", got, replays*(3*chains+1))
	}
	if p.Replays() != replays {
		t.Fatalf("profiler saw %d replays, want %d", p.Replays(), replays)
	}
	if p.Templates() != 1 {
		t.Fatalf("profiler saw %d templates, want 1", p.Templates())
	}

	pd := p.Snapshot(workers)
	if len(pd.Templates) != 1 {
		t.Fatalf("snapshot has %d templates, want 1", len(pd.Templates))
	}
	td := &pd.Templates[0]
	if td.Name != "test-diamond" || td.Replays != replays {
		t.Fatalf("template %q replays=%d, want test-diamond/%d", td.Name, td.Replays, replays)
	}
	for i := range td.Nodes {
		if td.Nodes[i].SumNS <= 0 {
			t.Fatalf("node %d accumulated no time", i)
		}
		if td.Nodes[i].LastEndNS <= td.Nodes[i].LastStartNS {
			t.Fatalf("node %d has empty last window", i)
		}
	}

	a := Analyze(td, workers)
	if len(a.CritPath) == 0 {
		t.Fatal("empty critical path")
	}
	// Every chain is 3 sequential ~50µs bodies plus the join: the span must
	// cover at least a chain+join, and work ≈ chains × span-ish ≥ span.
	if a.SpanNS > a.WorkNS {
		t.Fatalf("span %v > work %v", a.SpanNS, a.WorkNS)
	}
	if a.CritPath[len(a.CritPath)-1] != len(td.Nodes)-1 {
		t.Fatalf("critical path %v should end at the reduce node %d", a.CritPath, len(td.Nodes)-1)
	}
	if a.ElapsedNS <= 0 {
		t.Fatal("no measured elapsed time")
	}
	var busy int64
	for _, wi := range a.Idle {
		busy += wi.BusyNS
	}
	if busy != td.LastWorkNS {
		t.Fatalf("idle attribution busy %d != last work %d", busy, td.LastWorkNS)
	}

	// Dump round-trip.
	var buf bytes.Buffer
	if err := pd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, pd) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, pd)
	}
	if a2 := Analyze(&back.Templates[0], back.Workers); !reflect.DeepEqual(a2, a) {
		t.Fatalf("round-trip analysis:\n got %+v\nwant %+v", a2, a)
	}

	// Report renders and names the pieces.
	var rep bytes.Buffer
	WriteReport(&rep, pd, 5)
	out := rep.String()
	for _, want := range []string{"test-diamond", "critical path", "slack", "idle attribution", "lstm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// Chrome trace: slices plus one flow pair per frozen edge.
	var ct bytes.Buffer
	if err := pd.WriteChromeTrace(&ct); err != nil {
		t.Fatal(err)
	}
	edges := 0
	for i := range td.Nodes {
		edges += len(td.Nodes[i].Preds)
	}
	if got := strings.Count(ct.String(), `"ph":"s"`); got != edges {
		t.Fatalf("chrome trace has %d flow starts, want %d", got, edges)
	}
	if got := strings.Count(ct.String(), `"ph":"f"`); got != edges {
		t.Fatalf("chrome trace has %d flow ends, want %d", got, edges)
	}
}

// TestMetrics scrapes the bpar_prof_* gauges after a profiled replay.
func TestMetrics(t *testing.T) {
	p := NewGraphProfiler()
	rt := taskrt.New(taskrt.Options{Workers: 2, Profile: p})
	defer rt.Shutdown()
	var counter atomic.Int64
	tpl := buildTemplate(t, 2, &counter)
	rt.Replay(tpl)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	RegisterMetrics(reg, p, 2)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"bpar_prof_replays_total 1",
		"bpar_prof_templates 1",
		"bpar_prof_span_ns",
		"bpar_prof_work_ns",
		"bpar_prof_parallelism",
		"bpar_prof_overhead_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "bpar_prof_span_ns 0\n") {
		t.Fatalf("span gauge is zero after a profiled replay:\n%s", out)
	}
}

// TestConcurrentReplayProfiles races two templates' replays against scrapes;
// run under -race this is the memory-model contract check for the lock-free
// NodeDone path.
func TestConcurrentReplayProfiles(t *testing.T) {
	p := NewGraphProfiler()
	rt := taskrt.New(taskrt.Options{Workers: 4, Profile: p})
	defer rt.Shutdown()
	var counter atomic.Int64
	tplA := buildTemplate(t, 3, &counter)
	tplB := buildTemplate(t, 2, &counter)
	tplB.Name = "test-b"

	reg := obs.NewRegistry()
	RegisterMetrics(reg, p, 4)
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 10; r++ {
		rt.Replay(tplA)
		rt.Replay(tplB)
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-scraped
	if p.Replays() != 20 {
		t.Fatalf("profiled %d replays, want 20", p.Replays())
	}
	pd := p.Snapshot(4)
	if len(pd.Templates) != 2 {
		t.Fatalf("%d templates, want 2", len(pd.Templates))
	}
}
