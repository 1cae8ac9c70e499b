package main

// The builder's contract runs one pass of one workload at a time and wants
// every declared metric from every workload. A train step and a served
// request are both "one operation a caller waits for", so the contract's
// end-to-end names are the kind-neutral ones below, each read from the
// workload kind's own metric; a per-layer metric of a layer the workload
// does not have reads 0. The trajectory file (-out) keeps the specific
// names and only the metrics a workload has.

// endToEnd is BENCHMARK.json's end_to_end list: contract name, unit, and the
// metric it is read from on a train and on a serve workload.
var endToEnd = []struct{ name, unit, train, serve string }{
	{"setup_s", "s", "setup_s", "setup_s"},
	{"ops_per_s", "1/s", "steps_per_s", "sat_qps"},
	{"op_ms_p50", "ms", "step_ms_p50", "lat_p50_ms"},
	{"op_ms_p90", "ms", "step_ms_p90", "lat_p90_ms"},
	{"heap_inuse_mb", "MB", "heap_inuse_mb", "heap_inuse_mb"},
}

// perLayer is BENCHMARK.json's per_layer list, in layer order.
var perLayer = []struct{ name, unit string }{
	{"tensor.chain_gflops", "GFLOP/s"},
	{"tensor.chain_packed_gflops", "GFLOP/s"},
	{"tensor.proj_gflops", "GFLOP/s"},
	{"tensor.dw_gflops", "GFLOP/s"},
	{"tensor.dx_gflops", "GFLOP/s"},
	{"tensor.chain_flops_per_byte", "flop/B"},
	{"tensor.roof_peak_gflops_f64", "GFLOP/s"},
	{"tensor.roof_peak_gflops_f32", "GFLOP/s"},
	{"tensor.roof_stream_gbs", "GB/s"},
	{"tensor.roof_llc_mb", "MB"},
	{"tensor.roof_array_mb", "MB"},
	{"tensor.chain_roof_frac", "share"},
	{"tensor.proj_roof_frac", "share"},
	{"tensor.dw_roof_frac", "share"},
	{"tensor.gemm_flops_per_op", "flop"},
	{"tensor.gemm_calls_per_op", "count"},
	{"tensor.gemm_est_share", "share"},
	{"cell.pregates_ns", "ns"},
	{"cell.fwd_pre_ns", "ns"},
	{"cell.bwd_pre_ns", "ns"},
	{"cell.dw_batch_ns", "ns"},
	{"cell.fwd_elementwise_frac", "share"},
	{"taskrt.submit_ns_per_node", "ns"},
	{"taskrt.replay_ns_per_node", "ns"},
	{"taskrt.capture_freeze_us_per_node", "us"},
	{"taskrt.nodes_per_op", "count"},
	{"taskrt.overhead_ratio", "ratio"},
	{"taskrt.idle_frac", "share"},
	{"taskrt.steals_per_op", "count"},
	{"taskrt.local_hit_frac", "share"},
	{"core.span_ms", "ms"},
	{"core.work_ms", "ms"},
	{"core.parallelism", "ratio"},
	{"core.replay_elapsed_ms", "ms"},
	{"core.util", "share"},
	{"core.dep_wait_frac", "share"},
	{"core.sched_idle_frac", "share"},
	{"core.kind_ms.proj", "ms"},
	{"core.kind_ms.cell", "ms"},
	{"core.kind_ms.cell-bwd", "ms"},
	{"core.kind_ms.dw", "ms"},
	{"core.kind_ms.dx", "ms"},
	{"core.kind_ms.merge", "ms"},
	{"core.kind_ms.merge-bwd", "ms"},
	{"core.kind_ms.head", "ms"},
	{"core.kind_ms.head-bwd", "ms"},
	{"core.kind_ms.reduce", "ms"},
	{"core.kind_ms.conv", "ms"},
	{"core.host_ms", "ms"},
	{"core.capture_ms", "ms"},
	{"core.alloc_kb_per_op", "KB"},
	{"core.tpl_hit_ratio", "share"},
	{"core.ws_mb", "MB"},
	{"core.recon_err_frac", "share"},
	{"serve.stage_queue_wait_ms", "ms"},
	{"serve.stage_batch_wait_ms", "ms"},
	{"serve.stage_compute_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.net_ms", "ms"},
	{"serve.codec_ms", "ms"},
	{"serve.batch_fill", "share"},
	{"serve.padding_overhead", "share"},
	{"serve.batches_per_req", "count"},
	{"serve.tpl_hit_ratio", "share"},
	{"serve.bucket_hit_ratio", "share"},
	{"serve.rejected_frac", "share"},
	{"serve.warm_ms", "ms"},
	{"serve.open_p50_ms", "ms"},
	{"serve.open_p90_ms", "ms"},
	{"serve.open_sent", "count"},
	{"serve.gen_late_p99_ms", "ms"},
	{"serve.recon_err_frac", "share"},
	{"data.batch_ms", "ms"},
	{"data.wait_frac", "share"},
	{"prof.trace_overhead_frac", "share"},
}

// contractLine is the object the contract wants as the last line of standard
// output.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// contractMetrics projects one pass's metrics onto the declared names, as
// value and unit alone (a zero sample count is left out of the JSON).
func contractMetrics(w *workload, m metrics, traced bool) metrics {
	out := metrics{}
	if traced {
		for _, p := range perLayer {
			out.set(p.name, m.val(p.name), p.unit)
		}
		return out
	}
	for _, e := range endToEnd {
		from := e.train
		if w.serve {
			from = e.serve
		}
		out.set(e.name, m.val(from), e.unit)
	}
	return out
}
