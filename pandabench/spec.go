package main

// metricDef names one metric of BENCHMARK.json. Bounds live only in
// BENCHMARK.json; TestSpecMatchesBenchmarkJSON checks that the lists agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"p50_us.low", "us", "lower"},
	{"p99_us.low", "us", "lower"},
	{"p50_us.high", "us", "lower"},
	{"p99_us.high", "us", "lower"},
	{"mem_mb", "MB", "lower"},
}

// phases of every workload: two open-loop rates and a closed-loop
// saturation phase (batch-cosmo3d: the bulk KNN throughput phase).
var (
	openPhases = []string{"low", "high"}
	allPhases  = []string{"low", "high", "sat"}
)

// perLayer lists the traced run's metrics, layer by layer.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	each := func(phases []string, unit, better string, names ...string) {
		for _, n := range names {
			for _, p := range phases {
				add(unit, better, n+"."+p)
			}
		}
	}
	each(allPhases, "us", "lower", "server.linger_us", "server.queue_wait_us", "server.engine_us",
		"server.response_write_us", "server.decode_us", "server.e2e_us", "server.stage_gap_us")
	each(allPhases, "count", "higher", "server.batch_size")
	each(allPhases, "ms", "lower", "server.cpu_ms_per_kq", "server.gc_pause_ms")
	each(allPhases, "count", "lower", "server.shed")

	add("ns", "lower", "kdtree.knn8_ns", "kdtree.knn32_ns", "kdtree.radius_ns", "kdtree.count_within_ns")
	add("count", "lower", "kdtree.radius_hits", "kdtree.nodes_per_query", "kdtree.points_per_query")
	add("ratio", "higher", "kdtree.useful_frac")
	add("s", "lower", "kdtree.build_s_t1")

	add("ratio", "higher", "par.build_speedup", "par.query_speedup")
	add("ns", "lower", "panda.batch_ns")
	add("us", "lower", "panda.job_us")
	add("count", "lower", "panda.allocs_per_query")

	add("ms", "lower", "snapshot.open_ms")
	add("MB", "lower", "snapshot.file_mb")

	add("ns", "lower", "proto.req_encode_ns", "proto.req_decode_ns", "proto.resp_encode_ns", "proto.resp_decode_ns")
	add("B", "lower", "proto.bytes_per_query")

	each(openPhases, "us", "lower", "client.rtt_p50_us", "client.rtt_p99_us", "client.wire_us")
	add("us", "lower", "client.idle_rtt_us")

	each(allPhases, "us", "lower", "cluster.remote_exchange_us")
	each(allPhases, "count", "lower", "cluster.peer_legs_per_query")
	add("count", "lower", "cluster.peer_failures", "cluster.failovers")

	add("count", "lower", "transport.msgs")
	add("MB", "lower", "transport.mb")
	add("s", "lower", "transport.recv_wait_s", "core.build_s")
	add("ratio", "lower", "core.build_imbalance", "core.points_imbalance")

	each(openPhases, "us", "lower", "loadgen.late_p99_us")
	each(allPhases, "count", "higher", "loadgen.sent")
	each(openPhases, "us", "lower", "loadgen.phase_p50_us", "loadgen.phase_p99_us", "loadgen.median_window_p99_us")
	add("1/s", "higher", "loadgen.phase_qps.sat", "loadgen.median_window_qps.sat")

	add("%", "lower", "trace.overhead_pct")
	return defs
}
