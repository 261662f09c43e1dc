package main

// metricSpec names one metric, its unit and which direction is better.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run prints, on every workload.
// Each workload gives them its own unit of work: a sweep (bandwidth), a
// record-convert-info flow over both algorithms (record), the cold, miss
// and hit phases of a served cycle (served). Times are CPU seconds of the
// measured processes: on a shared virtual machine the hypervisor steals
// time from a run, so wall time wanders by tens of percent from run to
// run while CPU time repeats within a few. Wall times are printed too.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics every traced run prints. A layer the workload
// never calls reads 0.
var perLayer = []metricSpec{
	{"core.sort_s", "s", "lower"},
	{"trace.record_s", "s", "lower"},
	{"trace.record_ns_per_op", "ns", "lower"},
	{"trace.ops", "count", "lower"},
	{"trace.write_v2_s", "s", "lower"},
	{"trace.read_v2_s", "s", "lower"},
	{"trace.encode_v3_s", "s", "lower"},
	{"trace.open_v3_us", "us", "lower"},
	{"trace.validate_v3_s", "s", "lower"},
	{"trace.verify_v3_s", "s", "lower"},
	{"trace.v2_bytes", "bytes", "lower"},
	{"trace.v3_bytes", "bytes", "lower"},
	{"trace.cursor_slice_ns_per_op", "ns", "lower"},
	{"trace.cursor_v3_ns_per_op", "ns", "lower"},
	{"machine.replay_s", "s", "lower"},
	{"machine.events", "count", "lower"},
	{"machine.ns_per_event", "ns", "lower"},
	{"machine.allocs_per_event", "allocs/event", "lower"},
	{"machine.replay_v3_ns_per_event", "ns", "lower"},
	{"engine.ns_per_event", "ns", "lower"},
	{"cachesim.ns_per_access", "ns", "lower"},
	{"cachesim.hit_ratio", "ratio", "higher"},
	{"dram.ns_per_access", "ns", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"spmem.ns_per_access", "ns", "lower"},
	{"noc.ns_per_send", "ns", "lower"},
	{"harness.sweep_overhead_s", "s", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"serve.record_ms", "ms", "lower"},
	{"serve.upload_ms", "ms", "lower"},
	{"serve.miss_ms", "ms", "lower"},
	{"serve.hit_ms", "ms", "lower"},
	{"serve.miss_overhead_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.store_bytes", "bytes", "lower"},
	{"serve.response_bytes", "bytes", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		m[s.name] = s.unit
	}
	return m
}()

// Per-layer metrics that only some workloads reach.
var (
	recordSideOnly = []string{"trace.write_v2_s", "trace.read_v2_s", "trace.open_v3_us",
		"trace.validate_v3_s", "trace.verify_v3_s", "trace.v2_bytes", "trace.v3_bytes", "trace.encode_v3_s"}
	readSideOnly = []string{"trace.cursor_slice_ns_per_op", "trace.cursor_v3_ns_per_op",
		"machine.replay_s", "machine.events", "machine.ns_per_event", "machine.allocs_per_event",
		"machine.replay_v3_ns_per_event", "engine.ns_per_event", "cachesim.ns_per_access",
		"cachesim.hit_ratio", "dram.ns_per_access", "dram.row_hit_ratio", "spmem.ns_per_access",
		"noc.ns_per_send"}
	sweepOnly = []string{"harness.sweep_overhead_s", "report.render_ms"}
	serveOnly = []string{"serve.record_ms", "serve.upload_ms", "serve.miss_ms", "serve.hit_ms",
		"serve.miss_overhead_ms", "serve.cache_hit_ratio", "serve.rejected", "serve.store_bytes",
		"serve.response_bytes"}
)

// zero records 0 for metrics of layers this workload never calls.
func (r *run) zero(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}
