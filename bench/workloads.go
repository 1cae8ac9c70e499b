package main

import (
	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// workload is one set of inputs the benchmark runs. The zero values of the
// serve fields mean "serve.Config default": the benchmark sets only what a
// workload names.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json; README.md holds
	// the long form (regime, what moves it, what must not).
	why   string
	serve bool
	cfg   core.Config // Seed is filled from -seed

	// Serve workloads only.
	inferDType  tensor.DType
	buckets     []int
	warm        []int   // lengths passed to Server.Warm
	seqsPerReq  int     // sequences in one request
	lens        []int   // every payload's sequence lengths in turn; len(lens)/seqsPerReq distinct request bodies, cycled
	tol         float64 // per-probability oracle tolerance; 0 = bitwise
	closedShare float64 // share of the untraced pass spent in phase A (1 client); the rest is phase B (procs clients)
	openRate    float64 // phase C arrival rate, req/s; 0 = no open-loop phase
}

func blstm(in, hidden, layers, seq, batch int) core.Config {
	return core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: in, HiddenSize: hidden, Layers: layers, SeqLen: seq,
		Batch: batch, Classes: data.NumDigits, MiniBatches: 1,
	}
}

// The five workloads. Names are final: BENCHMARK.json, the baseline file and
// -compare key on them.
var workloads = []*workload{
	{
		name: "train_b1_t100",
		why:  "Table III batch-1 6-layer BLSTM 256/256 T=100: latency-bound training, M=1 GEMMs stream weights, so cell/tensor kernels move it and taskrt does not",
		cfg:  blstm(256, 256, 6, 100, 1),
	},
	{
		name: "train_gru_b16_t20",
		why:  "Table IV shape 6-layer BGRU 256/256 batch 16 mbs 2 T=20: compute-bound GEMM panels, the reduce graph and the GRU kernels; GEMM throughput shows here only",
		cfg: func() core.Config {
			c := blstm(256, 256, 6, 20, 16)
			c.Cell, c.MiniBatches = core.GRU, 2
			return c
		}(),
	},
	{
		name: "train_fine_h32_t100",
		why:  "same 3702-node graph at 32/32: 5 us tasks, so taskrt replay cost, host-side bind/optimizer time and per-step allocation move it and are invisible on the other two",
		cfg:  blstm(32, 32, 6, 100, 1),
	},
	{
		name:        "serve_b1_t100",
		why:         "forward-only f64 default path of the model train_b1_t100 trains, over loopback HTTP with 500 KB bodies: batching does nothing, codec and InferProbs do",
		serve:       true,
		cfg:         blstm(256, 256, 6, 100, 1),
		warm:        []int{100},
		seqsPerReq:  1,
		lens:        []int{100, 100, 100, 100},
		closedShare: 0.6,
	},
	{
		name:  "serve_mh_mixed",
		why:   "3-layer 40/64 batch-4 two-head model served f32 from buckets {25,50,100} with mixed lengths: batch window, padding, masking, packed panels and multi-head answers do real work",
		serve: true,
		cfg: func() core.Config {
			c := blstm(40, 64, 3, 100, 4)
			c.Heads = []core.HeadSpec{{Kind: core.HeadClassify, Classes: data.NumDigits}, {Kind: core.HeadTag, Classes: data.NumDigits}}
			return c
		}(),
		inferDType:  tensor.F32,
		buckets:     []int{25, 50, 100},
		warm:        []int{25, 50, 100},
		seqsPerReq:  2,
		lens:        mixedLens(32, 10, 100),
		tol:         1e-4,
		closedShare: 0.5,
		openRate:    12,
	},
}

// mixedLens returns n sequence lengths spread evenly over [lo, hi] in a fixed
// scrambled order. The lengths do not depend on -seed on purpose: which
// buckets a request's sequences fall into decides how many micro-batches it
// costs, so lengths drawn per seed would make every seed a different
// workload (a sample of 32 from U[10,100] moves the mean work by 8%) and the
// latency median, which sits between bucket classes, would jump with it.
// The seed still draws the frames, the weights, the order payloads are sent
// in and the arrival schedule.
func mixedLens(n, lo, hi int) []int {
	out := make([]int, n)
	for i, j := range rng.New(0x6d697865).Perm(n) {
		out[i] = lo + (j*(hi-lo)+(n-1)/2)/(n-1)
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
