package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same names and units plus each end-to-end metric's
// regression bound; spec_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// defaultSeconds is the measured window of one run (BENCHMARK.json
// run_seconds): the same on every commit.
const defaultSeconds = 15

// endToEnd lists what a user of the stack sees, per workload, always
// measured with tracing off. Failed ops are reported beside them as
// failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_wall_ms_p50", "ms"},
	{"op_wall_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics of single layers, from the traced pass; the
// prefix is the package the number belongs to. Unit "vms" is milliseconds
// on the virtual clock of the paper's cost model: deterministic, so it is
// a count, not a time. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"op_virtual_ms", "vms"},

	{"engine.setup_ms", "ms"},
	{"engine.load_metadata_ms", "ms"},
	{"engine.tree_diff_ms", "ms"},
	{"engine.coalesce_ms", "ms"},
	{"engine.stream_verify_ms", "ms"},
	{"engine.report_ms", "ms"},
	{"engine.unaccounted_ms", "ms"},
	{"engine.steps_virtual_ms", "vms"},

	{"compare.load_metadata_ms_p50", "ms"},
	{"compare.metadata_bytes", "bytes"},
	{"compare.build_ms_p50", "ms"},
	{"compare.build_hash_virtual_ms", "vms"},
	{"compare.build_tree_virtual_ms", "vms"},
	{"compare.group_read_ops", "count"},
	{"compare.group_read_bytes", "bytes"},

	{"merkle.diff_us_p50", "us"},
	{"merkle.candidate_frac", "ratio"},
	{"merkle.build_ms_p50", "ms"},

	{"errbound.leaf_hash_f32_mbps", "MB/s"},
	{"errbound.compare_f32_mbps", "MB/s"},

	{"device.pool_for_us_p50", "us"},

	{"aio.read_batch_mbps", "MB/s"},
	{"aio.read_batch_ops", "count"},

	{"stream.bytes_read_per_op", "bytes"},
	{"stream.read_retries", "count"},
	{"stream.ring_fallbacks", "count"},

	{"pfs.read_ops_per_op", "count"},
	{"pfs.read_bytes_per_op", "bytes"},

	{"ckpt.write_ms_p50", "ms"},
	{"ckpt.write_virtual_ms", "vms"},
	{"ckpt.open_us_p50", "us"},

	{"service.submit_us_p50", "us"},
	{"service.submit_to_done_ms_p50", "ms"},
	{"service.peak_inflight", "count"},
	{"service.rejected_frac", "ratio"},

	{"wal.append_us_p50", "us"},
	{"wal.bytes_per_job", "bytes"},
	{"wal.recover_ms", "ms"},
	{"wal.verify_ms", "ms"},

	{"http.healthz_us_p50", "us"},
	{"http.submit_ms_p50", "ms"},
	{"http.wait_ms_p50", "ms"},
	{"http.status_429", "count"},

	{"shard.wall_ms_p50", "ms"},
	{"shard.makespan_virtual_ms", "vms"},
	{"shard.steals", "count"},

	{"cas.capture_ms_p50", "ms"},
	{"cas.dedup_hit_frac", "ratio"},
	{"cas.bytes_saved_frac", "ratio"},
	{"cas.comparediff_read_ops", "count"},

	{"proc.alloc_mb_per_op", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.peak_rss_mb", "MB"},

	{"trace.overhead_frac", "ratio"},
}

// exactPerLayer are the per-layer counts that repeat exactly for one seed
// and commit; -check reports any change in them. op_virtual_ms is the
// paper's cost-model price of an op and may not rise by more than 0.1 %.
var exactPerLayer = map[string]float64{
	"op_virtual_ms":           0.001,
	"engine.steps_virtual_ms": 0.001,
	"pfs.read_ops_per_op":     0,
	"pfs.read_bytes_per_op":   0,
}
