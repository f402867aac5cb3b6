package main

// metricDef is one row of the benchmark's metric table. The same table
// is written out as BENCHMARK.json (a test keeps the two equal), printed
// beside every value, and applied by -compare.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // share of the baseline median a metric may worsen by
}

// endToEnd are the metrics a user of the service sees, each with the
// bound a later change is held to. Every one is defined, non-zero and
// repeatable on every workload, and all come from the closed loop.
// README.md says why the rest of the issue's service-level numbers are
// reported with the ungated set below instead: fail_share and
// paced_miss_share are 0 on a healthy system, correct_share is constant,
// first_partial_p50_ms exists on one workload, and the paced latencies
// vary 10 to 20 % from run to run on this box with nothing changed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"setup_heap_mb", "MB", "lower", 0.10},
	{"closed_qps", "1/s", "higher", 0.25},
	{"closed_p50_ms", "ms", "lower", 0.25},
	{"closed_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer are the ungated diagnostics: one module per prefix, plus the
// six service-level numbers above. A metric that does not apply to a
// workload (imm.* on text, shard.* on voice) reads 0 there.
var perLayer = []metricDef{
	{Name: "paced_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "paced_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "first_partial_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "paced_miss_share", Unit: "share", Better: "lower"},
	{Name: "fail_share", Unit: "share", Better: "lower"},
	{Name: "correct_share", Unit: "share", Better: "higher"},

	{Name: "client.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.sched_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.req_bytes_per_op", Unit: "B", Better: "lower"},

	{Name: "cluster.frontend_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.attempts_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.scatter_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.scatter_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.stream_relay_self_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "sirius.server_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sirius.process_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "batch.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "batch.frames_per_batch", Unit: "count", Better: "higher"},
	{Name: "batch.queue_wait_ms_mean", Unit: "ms", Better: "lower"},

	{Name: "asr.total_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "asr.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "asr.rtf_p50", Unit: "ratio", Better: "lower"},
	{Name: "audio.mfcc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gmm.score_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dnn.score_i8_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hmm.search_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "asr.stream_push_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "audio.stream_extract_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "asr.stream_finish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "asr.stream_partials_per_session", Unit: "count", Better: "higher"},

	{Name: "qa.total_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nlp.stemmer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nlp.regex_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nlp.crf_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "search.retrieval_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "qa.filter_hits_per_op", Unit: "count", Better: "lower"},

	{Name: "imm.total_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vision.fe_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "vision.fd_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imm.ann_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "shard.leaf_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.resp_bytes_per_leaf", Unit: "B", Better: "lower"},
	{Name: "shard.partial_share", Unit: "share", Better: "lower"},

	{Name: "process.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "process.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.goroutines_leaked", Unit: "count", Better: "lower"},

	{Name: "dcsim.pred_paced_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "dcsim.model_err_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// value is one reported number with its unit, the shape the result line
// uses.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders the metrics named by defs out of the computed set.
func pick(defs []metricDef, computed map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: computed[d.Name], Unit: d.Unit}
	}
	return out
}
