package main

// metricDef names one metric the way BENCHMARK.json does; the test keeps
// the two from drifting.  Bound is the share of the base's median by
// which an end-to-end metric may worsen before -compare calls it worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are what someone embedding streamdag pays for, measured with
// tracing off and no Observer on a resident engine.
//
// The timing metrics carry the contract's widest bound, 0.25.  In quiet
// minutes ten runs on ten seeds spread 1–10 % (inter-quartile, as a share
// of the median), but the development box is a shared two-vCPU VM whose
// neighbours' load now and then stays for tens of minutes, slows every
// repetition of a run by 15–40 % and spreads ten runs 17–24 % (README.md,
// "Run-to-run agreement"); a bound inside that would reject the benchmark,
// and every later change, by chance.  The two counted metrics repeat
// (almost) exactly and keep tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_msgs_s", "1/s", higher, 0.25},
	{"cpu_us_per_msg", "us/msg", lower, 0.25},
	{"allocs_per_msg", "allocs/msg", lower, 0.05},
	{"edge_msgs_per_input", "msgs/input", lower, 0.01},
}

// perLayer come from the traced run of the workload (T) or from the
// layer pass (M); they carry no bound.
var perLayer = []metricDef{
	{"streamdag.build_us", "us", lower, 0},
	{"streamdag.engine_start_us", "us", lower, 0},
	{"streamdag.close_us", "us", lower, 0},
	{"streamdag.open_us", "us", lower, 0},
	{"streamdag.drain_tail_us", "us", lower, 0},
	{"streamdag.pull_gap_ns", "ns", lower, 0},
	{"streamdag.source_msgs_per_call", "msgs/call", higher, 0},
	{"streamdag.sink_msgs_per_call", "msgs/call", higher, 0},
	{"streamdag.pump_ns_per_msg", "ns", lower, 0},
	{"streamdag.pump_ns_per_msg_b64", "ns", lower, 0},
	{"streamdag.flow_tax_frac", "frac", lower, 0},
	{"kernel.calls", "count", lower, 0},
	{"kernel.msgs_per_call", "msgs/call", higher, 0},
	{"kernel.busy_frac", "frac", higher, 0},
	{"proto.fire_ns", "ns", lower, 0},
	{"proto.dummies_per_fire", "1/fire", lower, 0},
	{"proto.fire_nofilter_ns", "ns", lower, 0},
	{"proto.firerun_ns_per_msg", "ns", lower, 0},
	{"proto.minseq_ns", "ns", lower, 0},
	{"proto.fire_nonprop_ns", "ns", lower, 0},
	{"stream.hop_ns_b1", "ns", lower, 0},
	{"stream.hop_ns_b64", "ns", lower, 0},
	{"stream.open_wait_us", "us", lower, 0},
	{"stream.edge_msgs_per_input", "msgs/input", lower, 0},
	{"stream.ns_per_edge_msg", "ns", lower, 0},
	{"stream.span_len_mean", "msgs/span", higher, 0},
	{"stream.credit_stalls_per_kmsg", "1/kmsg", lower, 0},
	{"stream.credit_stall_frac", "frac", lower, 0},
	{"stream.queue_depth_max", "msgs", lower, 0},
	{"stream.node_busy_frac_max", "frac", lower, 0},
	{"stream.node_busy_frac_min", "frac", higher, 0},
	{"dist.hop_ns_b1", "ns", lower, 0},
	{"dist.hop_ns_b64", "ns", lower, 0},
	{"dist.wire_bytes_per_msg", "B/msg", lower, 0},
	{"dist.frames_per_msg", "frames/msg", lower, 0},
	{"dist.bodies_per_frame", "bodies/frame", higher, 0},
	{"dist.credit_stall_frac", "frac", lower, 0},
	{"dist.sys_cpu_frac", "frac", lower, 0},
	{"sim.ns_per_msg", "ns", lower, 0},
	{"sim.steps_per_input", "steps/input", lower, 0},
	{"obs.overhead_frac", "frac", lower, 0},
	{"obs.snapshot_us", "us", lower, 0},
	{"trace.overhead_frac", "frac", lower, 0},
	{"analysis.sp_prop_us_per_kedge", "us/kedge", lower, 0},
	{"analysis.sp_nonprop_us_per_kedge", "us/kedge", lower, 0},
	{"analysis.cs4_prop_us", "us", lower, 0},
	{"analysis.cs4_nonprop_us", "us", lower, 0},
	{"analysis.classify_us", "us", lower, 0},
	{"replicate.k2_tax_frac", "frac", lower, 0},
	{"timed.ticks_per_s", "1/s", higher, 0},
	{"timed.emissions_per_tick", "1/tick", higher, 0},
	{"timed.windowed_vs_raw_frac", "frac", higher, 0},
	// Demoted from end to end, as the issue prescribes for a metric that
	// cannot hold its bound: at a quarter of capacity a message's wait is
	// a chain of goroutine and vCPU wake-ups, 12 µs on chain_b1 while the
	// host is quiet and 16–24 µs with spreads of 24–38 % across ten runs
	// while it is not, against 25 %, the widest bound the contract has.
	{"loadgen.latency_p50_us", "us", lower, 0},
	{"loadgen.late_p50_us", "us", lower, 0},
	{"loadgen.late_p99_us", "us", lower, 0},
	{"loadgen.latency_p99_us", "us", lower, 0},
	{"loadgen.backlog_max", "msgs", lower, 0},
	{"loadgen.backlog_slope", "frac", lower, 0},
	{"budget.unexplained_frac", "frac", lower, 0},
	// Demoted from end to end: both are 0 where nothing is wrong (five
	// workloads send no dummies, no workload fails an operation), and the
	// contract takes no end-to-end metric that can read 0.  The traffic
	// dummies add is gated end to end as edge_msgs_per_input; failures as
	// the run's failed/attempted counts and exit status.
	{"dummy_per_input", "msgs/input", lower, 0},
	{"failed_frac", "frac", lower, 0},
}
