package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/obs"
	"bpar/internal/prof"
	"bpar/internal/rng"
	"bpar/internal/serve"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// serveWorkers is serve.Config's default WorkersPerEngine, which the
// benchmark leaves alone; the profile's idle attribution needs the count.
const serveWorkers = 2

// serveEnv is one in-process server behind a loopback listener, warmed.
type serveEnv struct {
	srv     *serve.Server
	reg     *obs.Registry
	gp      *prof.GraphProfiler // nil unless profiled
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	hc      *http.Client
	handler http.Handler
	url     string

	setup time.Duration // NewModel + serve.New + Warm + listener
	warm  time.Duration // Warm alone
}

// newServeEnv builds the workload's server with serve.Config at its defaults
// apart from the fields the workload names, warms it and starts listening.
func newServeEnv(w *workload, seed uint64, profile bool) (*serveEnv, error) {
	e := &serveEnv{reg: obs.NewRegistry(), served: make(chan struct{})}
	t0 := time.Now()
	cfg := w.cfg
	cfg.Seed = seed
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	sc := serve.Config{Model: m, InferDType: w.inferDType, Buckets: w.buckets, Registry: e.reg}
	if profile {
		e.gp = prof.NewGraphProfiler()
		sc.Profile = e.gp
	}
	if e.srv, err = serve.New(sc); err != nil {
		return nil, err
	}
	tw := time.Now()
	if err := e.srv.Warm(w.warm); err != nil {
		e.drain()
		return nil, err
	}
	e.warm = time.Since(tw)

	mux := http.NewServeMux()
	e.srv.Routes(mux)
	// /null reads a request and answers without serving it: a round trip on
	// it is the cost of the socket and the HTTP framing alone.
	mux.HandleFunc("/null", func(rw http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	e.handler = mux
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.drain()
		return nil, err
	}
	e.hs = &http.Server{Handler: mux}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // always ErrServerClosed after close()
	}()
	e.url = "http://" + ln.Addr().String()
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: procs, MaxIdleConnsPerHost: procs, MaxConnsPerHost: procs}}
	e.setup = time.Since(t0)
	return e, nil
}

func (e *serveEnv) drain() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		fmt.Fprintln(logw, "bench: drain:", err)
	}
}

// close stops the listener, waits for it, then drains the pipeline and its
// runtimes.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(logw, "bench: http shutdown:", err)
	}
	<-e.served
	e.hc.CloseIdleConnections()
	e.drain()
}

func (e *serveEnv) target(ps []payload, tol float64) *target {
	return &target{send: httpSender(e.hc, e.url+"/v1/probs"), payloads: ps, tol: tol}
}

// buildPayloads makes the workload's distinct request bodies from the seed
// and computes, for every sequence in them, the answer a direct float64
// Engine.InferProbs gives at the sequence's exact length — on the inline
// executor with replay off, so the oracle shares neither the server's
// batching and masking nor its template path.
func buildPayloads(w *workload, seed uint64) ([]payload, error) {
	cfg := w.cfg
	cfg.Seed = seed
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(m, taskrt.NewInline(nil))
	eng.NoReplay = true
	corpus := data.NewSpeechCorpus(cfg.InputSize, seed)
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)

	out := make([]payload, len(w.lens)/w.seqsPerReq)
	for p := range out {
		var req serve.InferRequest
		for s := 0; s < w.seqsPerReq; s++ {
			T := w.lens[p*w.seqsPerReq+s]
			b := corpus.Batch(1, T)
			frames := make([][]float64, T)
			X := make([]*tensor.Matrix, T)
			for t := range frames {
				frames[t] = b.X[t].Row(0)
				X[t] = tensor.New(cfg.Batch, cfg.InputSize)
				copy(X[t].Row(0), frames[t])
			}
			req.Sequences = append(req.Sequences, frames)
			probs, _, err := eng.InferProbs(&core.Batch{X: X, Real: 1})
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			var want answer
			for h := range cfg.HeadSpecs() {
				lo, n := cfg.HeadSlotRange(h, T)
				rows := make([][]float64, n)
				for j := range rows {
					rows[j] = append([]float64(nil), probs[lo+j].Row(0)...)
				}
				want = append(want, rows)
			}
			out[p].want = append(out[p].want, want)
		}
		if out[p].body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	// The seed decides the order the bodies are cycled in.
	order := make([]payload, len(out))
	for i, j := range r.Perm(len(out)) {
		order[i] = out[j]
	}
	return order, nil
}

// runServe is the untraced pass of a serve workload: phase A, one client,
// gives the latencies; phase B, procs clients, gives the saturated rate.
func runServe(w *workload, seed uint64, d time.Duration) (*result, error) {
	ps, err := buildPayloads(w, seed)
	if err != nil {
		return nil, err
	}
	var env *serveEnv
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		if env, err = newServeEnv(w, seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, env.setup.Seconds())
	}
	defer env.close()

	tgt := env.target(ps, w.tol)
	dA := time.Duration(float64(d) * w.closedShare)
	wu := warmUp(tgt)
	a := closedLoop(tgt, 1, dA)
	b := closedLoop(tgt, procs, d-dA)
	heap := heapInuseMB()
	fmt.Fprintf(logw, "  phase A (1 client): %v\n  phase B (%d clients): %v\n", a, procs, b)

	r := &result{Attempted: wu.attempted + a.attempted + b.attempted, Failed: wu.failed + a.failed + b.failed, Metrics: metrics{}}
	r.Metrics.setN("setup_s", median(setups), "s", len(setups))
	r.Metrics.setN("lat_p50_ms", percentile(a.latMS, 0.5), "ms", len(a.latMS))
	r.Metrics.setN("lat_p90_ms", percentile(a.latMS, 0.9), "ms", len(a.latMS))
	r.Metrics.setN("sat_qps", windowRate(b.done, b.span, rateWindows), "req/s", len(b.done))
	r.Metrics.set("heap_inuse_mb", heap, "MB")
	return r, nil
}

// stageLabels are the pipeline stages bpar_serve_stage_seconds is split by.
var stageLabels = []string{"queue_wait", "batch_wait", "compute"}

// stageMeans reads the per-stage means over a scrape interval, in ms, and
// what they add up to for one request: its sequences queue and wait out the
// batch window together, then each micro-batch the request was split into
// takes the engine in turn.
func stageMeans(after, before samples) (byStage map[string]float64, perReq, batchesPerReq float64) {
	byStage = make(map[string]float64)
	for _, s := range stageLabels {
		byStage[s] = 1e3 * meanOf(after, before, "bpar_serve_stage_seconds", fmt.Sprintf("{stage=%q}", s))
	}
	batchesPerReq = ratio(delta(after, before, "bpar_serve_batches_total"),
		delta(after, before, `bpar_serve_requests_total{code="200"}`))
	perReq = byStage["queue_wait"] + byStage["batch_wait"] + batchesPerReq*byStage["compute"]
	return byStage, perReq, batchesPerReq
}

// runServeLayers is the traced pass of a serve workload. A profiled server
// gives the stage split and the task-graph profile; an untraced reference
// server gives the latency the layers must add up to, the always-on counters
// and the open-loop phase; then the direct-call probes. The reference phase
// runs between two halves of the profiled one, so a host that drifts during
// the pass moves both alike. Every closed phase sends whole cycles of the
// payloads, so the means of different phases are means over the same mix of
// requests and can be added and compared.
func runServeLayers(w *workload, seed uint64, d time.Duration) (*result, error) {
	ps, err := buildPayloads(w, seed)
	if err != nil {
		return nil, err
	}
	share := func(f float64) time.Duration { return time.Duration(float64(d) * f) }
	trHalf, refA, direct, null, open := share(0.2), share(0.3), share(0.15), share(0.05), time.Duration(0)
	if w.openRate > 0 {
		trHalf, refA, direct, open = share(0.15), share(0.2), share(0.1), share(0.25)
	}
	m := metrics{}
	res := &result{Metrics: m}
	count := func(p phase) phase {
		res.Attempted += p.attempted
		res.Failed += p.failed
		return p
	}

	ref, err := newServeEnv(w, seed, false)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	tr, err := newServeEnv(w, seed, true)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	refTgt, trTgt := ref.target(ps, w.tol), tr.target(ps, w.tol)
	count(warmUp(refTgt))
	count(warmUp(trTgt))

	// Profiled server, first half.
	hit0, miss0 := tr.srv.TemplateStats()
	before := tr.gp.Snapshot(serveWorkers)
	s0, err := scrape(tr.reg)
	if err != nil {
		return nil, err
	}
	ta := count(closedLoop(trTgt, 1, trHalf))

	// Reference server: untraced latency and the always-on counters.
	fl0, calls0 := tensor.GEMMFlops()+tensor.GEMMFlops32(), tensor.GEMMCalls()+tensor.GEMMCalls32()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ra := count(closedLoop(refTgt, 1, refA))
	runtime.ReadMemStats(&ms1)
	fl1, calls1 := tensor.GEMMFlops()+tensor.GEMMFlops32(), tensor.GEMMCalls()+tensor.GEMMCalls32()
	reqs := float64(ra.attempted)
	m.set("tensor.gemm_flops_per_op", float64(fl1-fl0)/reqs, "flop")
	m.set("tensor.gemm_calls_per_op", float64(calls1-calls0)/reqs, "count")
	m.set("core.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/reqs, "KB")

	// Profiled server, second half.
	ta.add(count(closedLoop(trTgt, 1, trHalf)))
	s1, err := scrape(tr.reg)
	if err != nil {
		return nil, err
	}
	pr := profileDelta(tr.gp.Snapshot(serveWorkers), before)
	hit1, miss1 := tr.srv.TemplateStats()
	pr.into(m)

	stage, stagesPerReq, batchesPerReq := stageMeans(s1, s0)
	for _, s := range stageLabels {
		m.set("serve.stage_"+s+"_ms", stage[s], "ms")
	}
	m.set("serve.batches_per_req", batchesPerReq, "count")
	m.set("serve.batch_fill", meanOf(s1, s0, "bpar_serve_batch_fill", ""), "share")
	m.set("serve.padding_overhead", meanOf(s1, s0, "bpar_serve_padding_overhead", ""), "share")
	m.set("serve.tpl_hit_ratio", ratio(float64(hit1-hit0), float64(hit1-hit0+miss1-miss0)), "share")
	bh, bm := delta(s1, s0, "bpar_serve_bucket_hits_total"), delta(s1, s0, "bpar_serve_bucket_misses_total")
	m.set("serve.bucket_hit_ratio", ratio(bh, bh+bm), "share")
	m.set("serve.rejected_frac", ratio(delta(s1, s0, `bpar_serve_requests_total{code="429"}`), float64(ta.attempted)), "share")
	m.set("serve.warm_ms", ms(tr.warm), "ms")
	m.set("core.host_ms", stage["compute"]-pr.elapsedMS, "ms")
	m.set("core.capture_ms", ms(tr.warm)/float64(len(w.warm))-stage["compute"], "ms")
	// One client in a closed loop: throughput is the reciprocal of the mean latency.
	m.set("prof.trace_overhead_frac", 1-ratio(mean(ra.latMS), mean(ta.latMS)), "share")

	// The handler called in memory: everything but the socket. What it
	// takes beyond its own pipeline stages is JSON decode, encode and
	// assembly.
	hTgt := &target{send: handlerSender(tr.handler, "/v1/probs"), payloads: ps, tol: w.tol}
	hd := count(closedLoop(hTgt, 1, direct))
	s2, err := scrape(tr.reg)
	if err != nil {
		return nil, err
	}
	_, directStages, _ := stageMeans(s2, s1)
	handlerMS := mean(hd.latMS)
	m.setN("serve.handler_ms", handlerMS, "ms", len(hd.latMS))
	m.set("serve.codec_ms", handlerMS-directStages, "ms")

	// The socket alone: the same bodies to a handler that serves nothing.
	nullSend := httpSender(tr.hc, tr.url+"/null")
	var netMS []float64
	for i, start := 0, time.Now(); time.Since(start) < null || i%len(ps) != 0; i++ {
		t0 := time.Now()
		if code, _, err := nullSend(ps[i%len(ps)].body); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("null round trip: status %d: %v", code, err)
		}
		netMS = append(netMS, ms(time.Since(t0)))
	}
	m.setN("serve.net_ms", mean(netMS), "ms", len(netMS))
	whole := mean(ra.latMS)
	m.set("serve.recon_err_frac", ratio(math.Abs(whole-(m.val("serve.net_ms")+m.val("serve.codec_ms")+stagesPerReq)), whole), "share")

	if open > 0 {
		// Independent users: arrivals on a schedule, whatever the server does.
		sched := poissonSchedule(rng.New(seed^0xc2b2ae3d27d4eb4f), w.openRate, open)
		oc := count(openLoop(refTgt, procs, sched))
		m.setN("serve.open_p50_ms", percentile(oc.latMS, 0.5), "ms", len(oc.latMS))
		m.setN("serve.open_p90_ms", percentile(oc.latMS, 0.9), "ms", len(oc.latMS))
		m.set("serve.open_sent", float64(oc.attempted), "count")
		m.setN("serve.gen_late_p99_ms", percentile(oc.lateMS, 0.99), "ms", len(oc.lateMS))
	}

	probeLayers(w, m)
	return res, nil
}
