package main

// layerMetrics is every per-layer metric a traced run prints, in
// BENCHMARK.json order. A workload that does not exercise a layer
// reports 0 for it. NOTES.md says which end-to-end metric each should
// move, on which workload.
var layerMetrics = []struct{ name, unit string }{
	{"machine.construct_ms", "ms"},
	{"machine.construct_mb", "MB"},
	{"machine.run_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"workload.next_calls", "count"},
	{"workload.next_share", "share"},
	{"sim.events", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"network.messages", "count"},
	{"network.intra_bytes", "bytes"},
	{"network.inter_bytes", "bytes"},
	{"cache.l1_misses", "count"},
	{"tokencmp.persistent", "count"},
	{"simd.decode_us", "us"},
	{"simd.requests", "count"},
	{"simd.hits", "count"},
	{"simd.runs", "count"},
	{"simd.collapsed", "count"},
	{"simd.shed", "count"},
	{"simd.evicted", "count"},
	{"simd.hit_ratio", "share"},
	{"simd.cold_overhead_ms", "ms"},
	{"simd.warm_p50_ms", "ms"},
	{"simd.warm_tail_ms", "ms"},
	{"mc.states", "count"},
	{"mc.full_states", "count"},
	{"mc.transitions", "count"},
	{"mc.token_arb_4c.check_s", "s"},
	{"mc.token_dst_3c.check_s", "s"},
	{"mc.hammer_3c.check_s", "s"},
	{"mc.successors_ns", "ns"},
	{"mc.invariant_ns", "ns"},
	{"mc.canon_ns", "ns"},
	{"sim.cpu_share", "share"},
	{"network.cpu_share", "share"},
	{"cache.cpu_share", "share"},
	{"topo.cpu_share", "share"},
	{"protocol.cpu_share", "share"},
	{"cpu.cpu_share", "share"},
	{"workload.cpu_share", "share"},
	{"machine.cpu_share", "share"},
	{"simd.cpu_share", "share"},
	{"net_http.cpu_share", "share"},
	{"json.cpu_share", "share"},
	{"mc.canon_cpu_share", "share"},
	{"mc.table_cpu_share", "share"},
	{"mc.models_cpu_share", "share"},
	{"mc.cpu_share", "share"},
	{"repo_other.cpu_share", "share"},
	{"harness.cpu_share", "share"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.memclr_cpu_share", "share"},
	{"runtime.other_cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"profile.samples", "count"},
	{"trace.overhead_s", "s"},
}

func layerUnit(name string) string {
	for _, d := range layerMetrics {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
