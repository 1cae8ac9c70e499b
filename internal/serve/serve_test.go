package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bpar/internal/core"
	"bpar/internal/obs"
	"bpar/internal/prof"
	"bpar/internal/rng"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// testModel builds a small model for service tests.
func testModel(t *testing.T, arch core.Arch) *core.Model {
	t.Helper()
	m, err := core.NewModel(core.Config{
		Cell: core.LSTM, Arch: arch, Merge: core.MergeSum,
		InputSize: 4, HiddenSize: 8, Layers: 2, SeqLen: 6,
		Batch: 4, Classes: 3, MiniBatches: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// makeSeq builds a deterministic [T][InputSize] frame sequence.
func makeSeq(T, inputSize int, seed uint64) [][]float64 {
	r := rng.New(seed)
	frames := make([][]float64, T)
	for t := range frames {
		frames[t] = make([]float64, inputSize)
		r.FillUniform(frames[t], -1, 1)
	}
	return frames
}

// directProbs runs one sequence alone through a reference engine (row 0 of a
// zero-padded batch, Real=1) and returns the per-head probability rows — the
// ground truth the service's padded, bucketed, micro-batched path must match
// bitwise.
func directProbs(t *testing.T, m *core.Model, frames [][]float64) [][]float64 {
	t.Helper()
	eng := core.NewEngine(m, taskrt.NewInline(nil))
	X := make([]*tensor.Matrix, len(frames))
	for i, frame := range frames {
		X[i] = tensor.New(m.Cfg.Batch, m.Cfg.InputSize)
		copy(X[i].Row(0), frame)
	}
	probs, _, err := eng.InferProbs(&core.Batch{X: X, Real: 1})
	if err != nil {
		t.Fatalf("direct InferProbs: %v", err)
	}
	heads := 1
	if m.Cfg.Arch == core.ManyToMany {
		heads = len(frames)
	}
	out := make([][]float64, heads)
	for h := range out {
		out[h] = append([]float64(nil), probs[h].Row(0)...)
	}
	return out
}

// newTestServer stands up a Server plus an httptest front end; both are torn
// down via t.Cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc, ts
}

// post sends one InferRequest and decodes the answer.
func post(t *testing.T, url string, seqs [][][]float64) (*http.Response, InferResponse) {
	t.Helper()
	body, err := json.Marshal(InferRequest{Sequences: seqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

// TestServeBitwiseMatchesDirectInfer is the core acceptance test: concurrent
// clients with mixed sequence lengths receive probabilities bitwise-equal to
// a direct Engine.InferProbs call on the same lone sequence, proving that
// partial-batch row padding, length bucketing, and micro-batch placement are
// numerically inert. encoding/json round-trips float64 exactly (shortest
// round-trip encoding), so the comparison survives the wire.
func TestServeBitwiseMatchesDirectInfer(t *testing.T) {
	for _, arch := range []core.Arch{core.ManyToOne, core.ManyToMany} {
		t.Run(arch.String(), func(t *testing.T) {
			m := testModel(t, arch)
			seqLens := []int{3, 5, 9}
			const variants = 3

			// Ground truth per (length, variant), computed before any traffic.
			want := map[string][][]float64{}
			seqs := map[string][][]float64{}
			for _, T := range seqLens {
				for v := 0; v < variants; v++ {
					key := fmt.Sprintf("%d/%d", T, v)
					s := makeSeq(T, m.Cfg.InputSize, uint64(1000*T+v))
					seqs[key] = s
					want[key] = directProbs(t, m, s)
				}
			}

			_, ts := newTestServer(t, Config{
				Model: m, Engines: 2, WorkersPerEngine: 2,
				BatchWindow: time.Millisecond,
			})

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						T := seqLens[(c+i)%len(seqLens)]
						v := (c * i) % variants
						key := fmt.Sprintf("%d/%d", T, v)
						resp, out := post(t, ts.URL+"/v1/probs", [][][]float64{seqs[key]})
						if resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("status %d for %s", resp.StatusCode, key)
							return
						}
						if len(out.Results) != 1 {
							errs <- fmt.Errorf("%d results for %s", len(out.Results), key)
							return
						}
						got := out.Results[0].Probs
						exp := want[key]
						if len(got) != len(exp) {
							errs <- fmt.Errorf("%s: %d heads, want %d", key, len(got), len(exp))
							return
						}
						for h := range exp {
							for j := range exp[h] {
								if got[h][j] != exp[h][j] {
									errs <- fmt.Errorf("%s head %d class %d: served %v != direct %v",
										key, h, j, got[h][j], exp[h][j])
									return
								}
							}
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestServeClassifyMatchesArgmax checks /v1/classify returns the argmax of
// the same distributions /v1/probs serves.
func TestServeClassifyMatchesArgmax(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	_, ts := newTestServer(t, Config{Model: m, Engines: 1, BatchWindow: time.Millisecond})

	s := makeSeq(5, m.Cfg.InputSize, 42)
	exp := directProbs(t, m, s)
	resp, out := post(t, ts.URL+"/v1/classify", [][][]float64{s})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 1 || len(out.Results[0].Labels) != 1 {
		t.Fatalf("unexpected shape: %+v", out)
	}
	if got, want := out.Results[0].Labels[0], argmax(exp[0]); got != want {
		t.Errorf("label %d, want argmax %d of %v", got, want, exp[0])
	}
}

// TestServeMultiSequenceRequest exercises several mixed-length sequences in
// one request body; results must align with request order.
func TestServeMultiSequenceRequest(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	_, ts := newTestServer(t, Config{Model: m, Engines: 1, BatchWindow: time.Millisecond})

	lens := []int{7, 3, 7, 5}
	var seqs [][][]float64
	var want [][][]float64
	for i, T := range lens {
		s := makeSeq(T, m.Cfg.InputSize, uint64(9000+i))
		seqs = append(seqs, s)
		want = append(want, directProbs(t, m, s))
	}
	resp, out := post(t, ts.URL+"/v1/probs", seqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != len(lens) {
		t.Fatalf("%d results, want %d", len(out.Results), len(lens))
	}
	for i, r := range out.Results {
		if r.SeqLen != lens[i] {
			t.Errorf("result %d seq_len %d, want %d", i, r.SeqLen, lens[i])
		}
		for h := range want[i] {
			for j := range want[i][h] {
				if r.Probs[h][j] != want[i][h][j] {
					t.Errorf("result %d head %d class %d: %v != %v", i, h, j, r.Probs[h][j], want[i][h][j])
				}
			}
		}
	}
}

// TestServeBadRequests covers the 400/405 validation path.
func TestServeBadRequests(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	_, ts := newTestServer(t, Config{Model: m, Engines: 1, BatchWindow: time.Millisecond, MaxSeqLen: 8})

	get, err := http.Get(ts.URL + "/v1/probs")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", get.StatusCode)
	}

	for name, seqs := range map[string][][][]float64{
		"no sequences":    {},
		"empty sequence":  {{}},
		"wrong width":     {{{1, 2}}},
		"over max seqlen": {makeSeq(9, m.Cfg.InputSize, 1)},
	} {
		resp, _ := post(t, ts.URL+"/v1/probs", seqs)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServeBackpressure429 fills the admission queue and checks the next
// request is refused with 429 plus a Retry-After header, while the admitted
// work still completes.
func TestServeBackpressure429(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	// QueueCap 2, a partial bucket (2 of 4 rows), and a long window: the two
	// admitted sequences sit in the bucket while the third arrives.
	svc, ts := newTestServer(t, Config{
		Model: m, Engines: 1, QueueCap: 2, BatchWindow: time.Second,
	})

	first := make(chan *http.Response, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/probs", [][][]float64{
			makeSeq(5, m.Cfg.InputSize, 1), makeSeq(5, m.Cfg.InputSize, 2),
		})
		first <- resp
	}()

	// Wait until both sequences are admitted and held in the bucket, then a
	// third arrival is guaranteed to overflow the queue.
	deadline := time.Now().Add(5 * time.Second)
	for svc.inflight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("first request was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	over, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(5, m.Cfg.InputSize, 3)})
	if over.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow status %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	resp := <-first
	if resp.StatusCode != http.StatusOK {
		t.Errorf("admitted request finished with status %d, want 200", resp.StatusCode)
	}
}

// TestServeGracefulDrain checks Drain's contract: in-flight sequences are
// answered, then new work is refused with 503.
func TestServeGracefulDrain(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	svc, err := New(Config{Model: m, Engines: 1, BatchWindow: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	inFlight := make(chan *http.Response, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(5, m.Cfg.InputSize, 3)})
		inFlight <- resp
	}()
	for svc.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The held partial bucket was flushed, not dropped.
	resp := <-inFlight
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight request finished with status %d, want 200", resp.StatusCode)
	}
	if n := svc.inflight.Load(); n != 0 {
		t.Errorf("inflight = %d after drain, want 0", n)
	}

	after, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(5, m.Cfg.InputSize, 4)})
	if after.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status %d, want 503", after.StatusCode)
	}
	if after.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
}

// TestServeTemplateHitRateAfterWarm checks the acceptance criterion that a
// warmed service replays templates on every request: after Warm, traffic at
// the warmed lengths adds hits but no misses.
func TestServeTemplateHitRateAfterWarm(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	svc, ts := newTestServer(t, Config{Model: m, Engines: 2, BatchWindow: time.Millisecond})

	warm := []int{3, 5}
	if err := svc.Warm(warm); err != nil {
		t.Fatal(err)
	}
	_, missesAfterWarm := svc.TemplateStats()
	if want := int64(len(warm) * len(svc.engines)); missesAfterWarm != want {
		t.Fatalf("misses after warm = %d, want %d (one capture per length per engine)", missesAfterWarm, want)
	}
	hits0, _ := svc.TemplateStats()

	for i := 0; i < 10; i++ {
		T := warm[i%len(warm)]
		resp, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(T, m.Cfg.InputSize, uint64(i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	hits, misses := svc.TemplateStats()
	if misses != missesAfterWarm {
		t.Errorf("misses grew from %d to %d under warmed traffic; template hit rate is not 100%%", missesAfterWarm, misses)
	}
	if hits <= hits0 {
		t.Errorf("hits did not grow under traffic (before %d, after %d)", hits0, hits)
	}
}

// TestServeBucketsBoundEngineCache: with Buckets set, each engine's
// workspace cache is bounded by the bucket count and every step runs at a
// bucket length, so warmed traffic over every bucket captures one template
// per bucket and evicts nothing.
func TestServeBucketsBoundEngineCache(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	reg := obs.NewRegistry()
	buckets := []int{3, 6, 10}
	svc, ts := newTestServer(t, Config{Model: m, Engines: 1, Buckets: buckets, Registry: reg})
	if err := svc.Warm([]int{2, 5, 9}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, T := range buckets {
			for _, origT := range []int{T - 1, T} {
				resp, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(origT, m.Cfg.InputSize, uint64(origT))})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("T=%d: status %d", origT, resp.StatusCode)
				}
			}
		}
	}
	if _, misses := svc.TemplateStats(); misses != int64(len(buckets)) {
		t.Errorf("template misses = %d, want %d (one capture per bucket)", misses, len(buckets))
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `bpar_engine_workspace_cache_evictions_total{engine="0"} 0` + "\n"; !strings.Contains(b.String(), want) {
		t.Errorf("scrape lacks %q:\n%s", want, b.String())
	}
}

// TestServeStageMetricsAndProfile drives requests through a profiled server
// and checks (1) the per-stage histograms populate on the scrape and (2) the
// engine-pool replays reached the Profile sink so a profile dump can be
// written after Drain.
func TestServeStageMetricsAndProfile(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	reg := obs.NewRegistry()
	p := prof.NewGraphProfiler()
	svc, ts := newTestServer(t, Config{
		Model: m, Engines: 1, WorkersPerEngine: 2,
		BatchWindow: time.Millisecond, Registry: reg, Profile: p,
	})
	if err := svc.Warm([]int{5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(5, 4, uint64(i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`bpar_serve_stage_seconds_count{stage="queue_wait"}`,
		`bpar_serve_stage_seconds_count{stage="batch_wait"}`,
		`bpar_serve_stage_seconds_count{stage="compute"}`,
		"bpar_serve_padding_overhead_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}

	// Warm captured the T=5 template; the 3 requests replayed it. The dump is
	// taken after Drain (all engine runtimes quiesced).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Replays() == 0 {
		t.Fatal("no replays reached the profiling sink")
	}
	pd := p.Snapshot(2)
	if len(pd.Templates) == 0 {
		t.Fatal("no templates in profile snapshot")
	}
	for _, td := range pd.Templates {
		if td.Replays > 0 && td.LastSpanNS <= 0 {
			t.Fatalf("template %q replayed but has no span", td.Name)
		}
	}
}

// TestServeF32WithinBand stands up a float32 service and checks the served
// probabilities stay within the engine's documented f32 tolerance band of
// the f64 ground truth (and are not bitwise-equal, which would mean the
// dtype knob was dropped on the pool path).
func TestServeF32WithinBand(t *testing.T) {
	const f32ProbTol = 1e-4
	m := testModel(t, core.ManyToOne)
	s := makeSeq(5, m.Cfg.InputSize, 77)
	want := directProbs(t, m, s)

	_, ts := newTestServer(t, Config{
		Model: m, Engines: 1, WorkersPerEngine: 2,
		BatchWindow: time.Millisecond,
		InferDType:  tensor.F32,
	})
	resp, out := post(t, ts.URL+"/v1/probs", [][][]float64{s})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := out.Results[0].Probs
	worst := 0.0
	for h := range want {
		for j := range want[h] {
			if d := got[h][j] - want[h][j]; d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
	}
	if worst > f32ProbTol {
		t.Fatalf("served f32 probs off f64 ground truth by %g", worst)
	}
	if worst == 0 {
		t.Fatal("served probs bitwise-equal to f64: InferDType not applied")
	}
}

// TestServeBucketsBitwiseExact: with an explicit bucket set, sequences of
// arbitrary admissible length are padded up to their bucket yet answered
// bitwise-equal to a direct exact-length engine call — the masked-batch
// (Batch.Lens) guarantee surfacing through the whole serving pipeline.
func TestServeBucketsBitwiseExact(t *testing.T) {
	for _, arch := range []core.Arch{core.ManyToOne, core.ManyToMany} {
		t.Run(arch.String(), func(t *testing.T) {
			m := testModel(t, arch)
			// The single-engine order runs a short sequence right after a
			// long one in the same bucket on the same engine.
			for _, c := range []struct {
				engines int
				lens    []int
			}{
				{2, []int{2, 3, 4, 5, 7, 8}},
				{1, []int{8, 5, 4, 2, 7, 3}},
			} {
				_, ts := newTestServer(t, Config{
					Model:   m,
					Engines: c.engines,
					Buckets: []int{4, 8},
				})
				for _, origT := range c.lens {
					frames := makeSeq(origT, m.Cfg.InputSize, uint64(100+origT))
					want := directProbs(t, m, frames)
					resp, out := post(t, ts.URL+"/v1/probs", [][][]float64{frames})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("T=%d: status %d", origT, resp.StatusCode)
					}
					got := out.Results[0]
					if got.SeqLen != origT {
						t.Fatalf("T=%d: seq_len %d", origT, got.SeqLen)
					}
					if len(got.Probs) != len(want) {
						t.Fatalf("T=%d: %d prob rows, want %d", origT, len(got.Probs), len(want))
					}
					for h := range want {
						for j := range want[h] {
							if got.Probs[h][j] != want[h][j] {
								t.Fatalf("T=%d head %d class %d: %v != %v (bucketed response not bitwise-equal)",
									origT, h, j, got.Probs[h][j], want[h][j])
							}
						}
					}
				}
			}
		})
	}
}

// TestServeBucketsRejectAndValidate: sequences beyond the largest bucket are
// rejected 400, and invalid bucket configurations fail construction.
func TestServeBucketsRejectAndValidate(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	_, ts := newTestServer(t, Config{Model: m, Engines: 1, Buckets: []int{4, 8}})
	resp, _ := post(t, ts.URL+"/v1/probs", [][][]float64{makeSeq(9, m.Cfg.InputSize, 1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-long sequence: status %d, want 400", resp.StatusCode)
	}

	if _, err := New(Config{Model: m, Buckets: []int{8, 4}}); err == nil {
		t.Fatal("unsorted buckets should be rejected")
	}
	if _, err := New(Config{Model: m, Buckets: []int{0}}); err == nil {
		t.Fatal("non-positive bucket should be rejected")
	}
}

// TestServeBucketMetrics: dispatches record per-bucket occupancy series, one
// set per bucket length actually used.
func TestServeBucketMetrics(t *testing.T) {
	m := testModel(t, core.ManyToOne)
	svc, ts := newTestServer(t, Config{Model: m, Engines: 1, Buckets: []int{4, 8}})
	for _, origT := range []int{3, 4, 6} {
		resp, _ := post(t, ts.URL+"/v1/classify", [][][]float64{makeSeq(origT, m.Cfg.InputSize, uint64(origT))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("T=%d: status %d", origT, resp.StatusCode)
		}
	}
	svc.met.bmu.Lock()
	defer svc.met.bmu.Unlock()
	for _, T := range []int{4, 8} {
		bm := svc.met.byBucket[T]
		if bm == nil {
			t.Fatalf("bucket %d has no metrics", T)
		}
		if bm.rows.Value() == 0 || bm.batches.Value() == 0 {
			t.Fatalf("bucket %d: rows=%d batches=%d", T, bm.rows.Value(), bm.batches.Value())
		}
	}
	if len(svc.met.byBucket) != 2 {
		t.Fatalf("expected exactly 2 bucket series, got %d", len(svc.met.byBucket))
	}
}

// TestServeMultiHeadPayloads: a model with several heads answers with
// per-head payloads — kind-tagged, one row for the classify head, origT
// rows for the per-frame heads — on both endpoints.
func TestServeMultiHeadPayloads(t *testing.T) {
	m, err := core.NewModel(core.Config{
		Cell: core.GRU, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 4, HiddenSize: 8, Layers: 1, SeqLen: 6,
		Batch: 4, MiniBatches: 1, Seed: 11,
		Heads: []core.HeadSpec{
			{Kind: core.HeadClassify, Classes: 3},
			{Kind: core.HeadTag, Classes: 5},
			{Kind: core.HeadGenerate, Classes: 7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Model: m, Engines: 1, Buckets: []int{4, 8}})
	const origT = 5
	frames := makeSeq(origT, m.Cfg.InputSize, 3)

	resp, out := post(t, ts.URL+"/v1/probs", [][][]float64{frames})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	r := out.Results[0]
	if r.Probs != nil || r.Labels != nil {
		t.Fatal("multi-head answers must not use the flat fields")
	}
	if len(r.Heads) != 3 {
		t.Fatalf("%d heads, want 3", len(r.Heads))
	}
	wantKinds := []string{"classify", "tag", "generate"}
	wantRows := []int{1, origT, origT}
	wantClasses := []int{3, 5, 7}
	for h, hr := range r.Heads {
		if hr.Kind != wantKinds[h] {
			t.Fatalf("head %d kind %q, want %q", h, hr.Kind, wantKinds[h])
		}
		if len(hr.Probs) != wantRows[h] {
			t.Fatalf("head %d: %d rows, want %d", h, len(hr.Probs), wantRows[h])
		}
		for _, row := range hr.Probs {
			if len(row) != wantClasses[h] {
				t.Fatalf("head %d: row width %d, want %d", h, len(row), wantClasses[h])
			}
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			if sum < 0.99 || sum > 1.01 {
				t.Fatalf("head %d: probabilities sum to %g", h, sum)
			}
		}
	}

	resp, out = post(t, ts.URL+"/v1/classify", [][][]float64{frames})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	r = out.Results[0]
	if len(r.Heads) != 3 {
		t.Fatalf("classify: %d heads", len(r.Heads))
	}
	for h, hr := range r.Heads {
		if len(hr.Labels) != wantRows[h] {
			t.Fatalf("classify head %d: %d labels, want %d", h, len(hr.Labels), wantRows[h])
		}
		for _, lbl := range hr.Labels {
			if lbl < 0 || lbl >= wantClasses[h] {
				t.Fatalf("classify head %d: label %d out of range", h, lbl)
			}
		}
	}
}
