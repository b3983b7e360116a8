package main

// metricDef is one metric the benchmark emits. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go keeps the two
// from drifting apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd is what a user of the system waits for. Every workload reports
// all three; what "op" and "work" are is the workload's definition (see
// README.md).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced pass reports: the battery's unit costs and
// exact counts (the same in every workload's report), then the workload's
// own per-op figures and the counts its layers kept.
var perLayer = []metricDef{
	{Name: "fp.mul_ns", Unit: "ns", Better: "lower"},
	{Name: "fp.square_ns", Unit: "ns", Better: "lower"},

	{Name: "bn254.miller1_us", Unit: "us", Better: "lower"},
	{Name: "bn254.pair_us", Unit: "us", Better: "lower"},
	{Name: "bn254.final_exp_us", Unit: "us", Better: "lower"},
	{Name: "bn254.miller64_us", Unit: "us", Better: "lower"},
	{Name: "bn254.hash_to_g2_us", Unit: "us", Better: "lower"},
	{Name: "bn254.g2_subgroup_us", Unit: "us", Better: "lower"},
	{Name: "bn254.g2_mult_us", Unit: "us", Better: "lower"},
	{Name: "bn254.g1_mult_us", Unit: "us", Better: "lower"},
	{Name: "bn254.g1_base_mult_us", Unit: "us", Better: "lower"},
	{Name: "bn254.g1_base_mult_add_us", Unit: "us", Better: "lower"},
	{Name: "bn254.pairings_per_verify_warm", Unit: "count", Better: "lower"},
	{Name: "bn254.pairings_per_verify_cold", Unit: "count", Better: "lower"},
	{Name: "bn254.final_exps_per_window", Unit: "count", Better: "lower"},
	{Name: "bn254.miller_squarings_per_window", Unit: "count", Better: "lower"},
	{Name: "bn254.g2_mults_per_cold_enroll", Unit: "count", Better: "lower"},

	{Name: "core.sign_us", Unit: "us", Better: "lower"},
	{Name: "core.sig_marshal_us", Unit: "us", Better: "lower"},
	{Name: "core.sig_unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "core.pk_unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "core.verify_hit_us", Unit: "us", Better: "lower"},
	{Name: "core.verify_miss_us", Unit: "us", Better: "lower"},
	{Name: "core.extract_us", Unit: "us", Better: "lower"},
	{Name: "core.keygen_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_sign", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_verify", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_verify", Unit: "B", Better: "lower"},
	{Name: "core.verify_hit_residual_pct", Unit: "%", Better: "lower"},
	{Name: "core.verify_miss_residual_pct", Unit: "%", Better: "lower"},

	{Name: "batch.us_per_sig", Unit: "us", Better: "lower"},
	{Name: "batch.forged_window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.same_signer_window_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.speedup_vs_single", Unit: "ratio", Better: "higher"},
	{Name: "batch.allocs_per_sig", Unit: "count", Better: "lower"},

	{Name: "threshold.issue_us", Unit: "us", Better: "lower"},
	{Name: "threshold.keyshare_unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "threshold.combine_us", Unit: "us", Better: "lower"},

	{Name: "kgcd.combiner_handler_us", Unit: "us", Better: "lower"},
	{Name: "kgcd.signer_handler_us", Unit: "us", Better: "lower"},
	{Name: "kgcd.client_overhead_us", Unit: "us", Better: "lower"},
	{Name: "kgcd.combiner_self_us", Unit: "us", Better: "lower"},
	{Name: "kgcd.warm_enroll_us", Unit: "us", Better: "lower"},
	{Name: "kgcd.cpu_ms_per_enroll", Unit: "ms", Better: "lower"},
	{Name: "kgcd.allocs_per_enroll", Unit: "count", Better: "lower"},
	{Name: "kgcd.cold_residual_pct", Unit: "%", Better: "lower"},

	{Name: "sim.queue_ns_d200", Unit: "ns", Better: "lower"},
	{Name: "sim.queue_ns_d3000", Unit: "ns", Better: "lower"},
	{Name: "radio.neighbor_query_ns_n20", Unit: "ns", Better: "lower"},
	{Name: "radio.neighbor_query_ns_n500", Unit: "ns", Better: "lower"},
	{Name: "mobility.position_ns", Unit: "ns", Better: "lower"},

	// The workload's own op, from the traced pass.
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "op.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "op.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "op.cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "op.allocs", Unit: "count", Better: "lower"},
	{Name: "op.bytes", Unit: "B", Better: "lower"},
	{Name: "op.pairings", Unit: "count", Better: "lower"},
	{Name: "op.final_exps", Unit: "count", Better: "lower"},
	{Name: "op.miller_squarings", Unit: "count", Better: "lower"},
	{Name: "op.g1_mults", Unit: "count", Better: "lower"},
	{Name: "op.g2_mults", Unit: "count", Better: "lower"},
	{Name: "op.budget_ms", Unit: "ms", Better: "lower"},
	{Name: "op.budget_residual_pct", Unit: "%", Better: "lower"},

	// Counts the workload's layers kept; zero where the workload never
	// reaches the layer.
	{Name: "kgcd.shares_per_miss", Unit: "ratio", Better: "lower"},
	{Name: "kgcd.hedges_per_1k", Unit: "ratio", Better: "lower"},
	{Name: "kgcd.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.events_per_trial", Unit: "count", Better: "lower"},
	{Name: "sim.peak_queue", Unit: "count", Better: "lower"},
	{Name: "sim.event_allocs", Unit: "count", Better: "lower"},
	{Name: "radio.grid_queries", Unit: "count", Better: "lower"},
	{Name: "radio.grid_candidates_per_query", Unit: "ratio", Better: "lower"},
	{Name: "radio.grid_rebuilds", Unit: "count", Better: "lower"},
	{Name: "radio.deliveries_per_event", Unit: "ratio", Better: "lower"},
	{Name: "routing.rreq_per_data", Unit: "ratio", Better: "lower"},
	{Name: "secrouting.auth_rejected", Unit: "count", Better: "lower"},
}

// The budgets: which layer unit costs an op's median should be made of.
// What they leave over is the residual the traced report states.

func budgetSignFresh(v map[string]float64) float64 {
	return (v["bn254.g1_base_mult_us"] + v["core.sig_marshal_us"]) / 1e3
}

func budgetAuthWarm(v map[string]float64) float64 {
	// Signature decode is the G2 subgroup check; Verify on a hit is one
	// fused fixed-base pass and one pairing.
	return (v["core.pk_unmarshal_us"] + v["bn254.g2_subgroup_us"] + v["bn254.g1_base_mult_add_us"] + v["bn254.pair_us"]) / 1e3
}

func budgetAuthCold(v map[string]float64) float64 {
	return budgetAuthWarm(v) + (v["bn254.hash_to_g2_us"]+v["bn254.pair_us"])/1e3
}

func budgetBatchFlood(v map[string]float64) float64 {
	// Per signature: A_i and its 128-bit weighting (half a full G1 mult);
	// per signer: a 128-bit G2 mult; then one lockstep Miller pass over
	// 64+1 pairs and one final exponentiation.
	n := float64(windowSigs)
	us := n*(v["bn254.g1_base_mult_add_us"]+v["bn254.g1_mult_us"]/2) + warmSigners*v["bn254.g2_mult_us"]/2 +
		v["bn254.miller64_us"]*(n+1)/n + v["bn254.final_exp_us"]
	return us / 1e3
}

func budgetKGCCold(v map[string]float64) float64 {
	// One client's uncontended round trip; the residual is what the second
	// client's contention for the two cores adds.
	return (v["kgcd.client_overhead_us"] + v["kgcd.combiner_handler_us"]) / 1e3
}

func budgetKGCWarm(v map[string]float64) float64 { return v["kgcd.warm_enroll_us"] / 1e3 }

func budgetSim(v map[string]float64) float64 {
	// Queue and neighbour-index cost at this workload's scale; the
	// residual is the routing, traffic and metrics handlers, which cannot
	// be separated from outside.
	queue, query := v["sim.queue_ns_d200"], v["radio.neighbor_query_ns_n20"]
	if v["sim.peak_queue"] > 1000 {
		queue, query = v["sim.queue_ns_d3000"], v["radio.neighbor_query_ns_n500"]
	}
	return v["sim.trials"] * (v["sim.events_per_trial"]*queue + v["radio.grid_queries"]*query) / 1e6
}
