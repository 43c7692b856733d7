package main

// metricDef declares one printed metric. The end-to-end list is what a
// run with -trace 0 prints, the per-layer list what a run with -trace 1
// prints; BENCHMARK.json declares the same names and units (the
// benchmark's own test keeps the two in step).
//
// For a per-layer metric, Moves names the end-to-end metric (and the
// workload) the layer should move, and Flat the workloads where it does
// no work, so a later change can predict which numbers it touches. On a
// flat workload the traced run measures the layer with probes (see
// probe.go) instead of reporting a constant 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Source string
	Moves  string
	Flat   string
}

// The end-to-end metrics carry one name across all three workloads,
// because every run prints every end-to-end metric; what "op" means
// depends on the workload (see opMeaning).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "server_cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	// The daemon's resident set at the low point of its GC sawtooth:
	// the 10th percentile of VmRSS sampled every 50 ms in the timed
	// phase. It is what the daemon keeps between collections; the median
	// and the peak move with GC timing from run to run. The peak (VmHWM)
	// is server.rss_peak_mb.
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// opMeaning says what op_p50_ms measures on each workload, what
// throughput_per_s counts, and the operation server_cpu_ms_per_op
// divides by. On the open loops throughput_per_s follows the offered
// rate, so it moves only when the daemon saturates.
var opMeaning = map[string][3]string{
	"device-sync":  {"one day sync (profile update then schedule), from when it was due", "day syncs completed per second (the offered rate unless the daemon saturates)", "one day sync"},
	"what-if":      {"one /v1/simulate, from when it was due", "simulations completed per second (the offered rate unless the daemon saturates)", "one simulate"},
	"fleet-ingest": {"one /v1/fleet/report read beside a full re-ingest pass", "fleet devices over the median round time", "one round (a full re-ingest pass, one report and one scrape)"},
}

const (
	srcHTTP   = "HTTP"
	srcTraced = "traced"
	srcGen    = "generator"
)

var perLayer = []metricDef{
	// The workload-specific client view (measured in the traced run).
	{Name: "sync_p50_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "sync_p99_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "simulate_p50_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "simulate_p99_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "ingest_devices_per_s", Unit: "1/s", Better: "higher", Source: srcGen, Moves: "throughput_per_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "throughput_per_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "ingest_p99_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "throughput_per_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "report_p50_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "op_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "scrape_p50_ms", Unit: "ms", Better: "lower", Source: srcGen, Moves: "server_cpu_ms_per_op on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Source: srcGen, Moves: "none (restart after the timed phase)", Flat: "device-sync, what-if"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Source: srcGen, Moves: "every metric (a failed run is refused)", Flat: "n/a"},

	// Daemon spans joined to client calls on X-Netmaster-Request-Id.
	{Name: "server.handle_ms.profile_update.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "server.handle_ms.schedule.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "server.handle_ms.schedule.p99", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "sync_p99_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "server.handle_ms.simulate.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "server.handle_ms.simulate.p99", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "simulate_p99_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "server.handle_ms.ingest_batch.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "throughput_per_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "server.handle_ms.ingest_batch.p99", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "ingest_p99_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "server.handle_ms.fleet_report.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "server.outside_ms.profile_update.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync (transport or generator)", Flat: "n/a"},
	{Name: "server.outside_ms.schedule.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync (transport or generator)", Flat: "n/a"},
	{Name: "server.outside_ms.simulate.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on what-if (transport or generator)", Flat: "n/a"},
	{Name: "server.outside_ms.ingest_batch.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "throughput_per_s on fleet-ingest (transport or generator)", Flat: "n/a"},
	{Name: "server.outside_ms.fleet_report.p50", Unit: "ms", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on fleet-ingest (transport or generator)", Flat: "n/a"},
	{Name: "server.request_kb.profile_update", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.request_kb.schedule", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.request_kb.simulate", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on what-if", Flat: "n/a"},
	{Name: "server.request_kb.ingest_batch", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "throughput_per_s on fleet-ingest", Flat: "n/a"},
	{Name: "server.response_kb.profile_update", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.response_kb.schedule", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.response_kb.simulate", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on what-if", Flat: "n/a"},
	{Name: "server.response_kb.ingest_batch", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "throughput_per_s on fleet-ingest", Flat: "n/a"},
	{Name: "server.response_kb.fleet_report", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "op_p50_ms on fleet-ingest", Flat: "n/a"},
	{Name: "server.profile_cache.hit_ratio", Unit: "ratio", Better: "higher", Source: srcHTTP, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "server.alloc_mb_per_op", Unit: "MB", Better: "lower", Source: srcHTTP, Moves: "server_cpu_ms_per_op on every workload", Flat: "n/a"},
	{Name: "server.gc_per_op", Unit: "count", Better: "lower", Source: srcHTTP, Moves: "server_cpu_ms_per_op on every workload", Flat: "n/a"},
	{Name: "server.rss_peak_mb", Unit: "MB", Better: "lower", Source: srcHTTP, Moves: "server_rss_mb on every workload", Flat: "n/a"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Source: srcHTTP, Moves: "failed_ratio on every workload", Flat: "n/a"},
	{Name: "server.errors", Unit: "count", Better: "lower", Source: srcHTTP, Moves: "failed_ratio on every workload", Flat: "n/a"},

	// In-process replays of each request's work, on an idle daemon.
	{Name: "server.decode_ms.profile_update", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.decode_ms.schedule", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.decode_ms.simulate", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "n/a"},
	{Name: "server.decode_ms.ingest_batch", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "throughput_per_s on fleet-ingest", Flat: "n/a"},
	{Name: "server.encode_ms.schedule", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "n/a"},
	{Name: "server.encode_ms.simulate", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "n/a"},
	{Name: "server.encode_ms.fleet_report", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on fleet-ingest", Flat: "n/a"},
	{Name: "habit.clone_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "habit.fold_day_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "habit.profile_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "habit.hash_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "what-if, fleet-ingest"},
	{Name: "core.schedule_ms.p50", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "fleet-ingest"},
	{Name: "core.schedule_ms.p99", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "sync_p99_ms on device-sync (volunteer days)", Flat: "fleet-ingest"},
	{Name: "core.activities_per_call", Unit: "count", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "fleet-ingest"},
	{Name: "core.slots_per_call", Unit: "count", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on device-sync", Flat: "fleet-ingest"},
	{Name: "core.scheduled_ratio", Unit: "ratio", Better: "higher", Source: srcTraced, Moves: "none (a quality count)", Flat: "fleet-ingest"},
	{Name: "policy.plan_ms.netmaster", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "policy.plan_ms.netmaster-dual", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "policy.plan_ms.oracle", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "policy.plan_ms.delay", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "policy.plan_ms.batch", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "policy.plan_ms.wifi-offload", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "middleware.replay_ms.p50", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "simulate_p99_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "middleware.replay_ms.p99", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "simulate_p99_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "device.run_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "device.run_radios_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on what-if", Flat: "device-sync, fleet-ingest"},
	{Name: "telemetry.aggregate_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms, ingest_p99_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "telemetry.export_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "telemetry.prom_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "scrape_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "analyze.device_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "analyze.fleet_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "op_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "store.append_ms.p50", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "throughput_per_s, ingest_p50_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "store.append_ms.p99", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "ingest_p99_ms on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower", Source: srcTraced, Moves: "ingest_p99_ms, recovery_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "store.appends", Unit: "count", Better: "lower", Source: srcHTTP, Moves: "throughput_per_s, recovery_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "store.compactions", Unit: "count", Better: "lower", Source: srcHTTP, Moves: "ingest_p99_ms, recovery_s on fleet-ingest", Flat: "device-sync, what-if"},
	{Name: "store.write_kb_per_device", Unit: "KB", Better: "lower", Source: srcHTTP, Moves: "throughput_per_s, recovery_s on fleet-ingest", Flat: "device-sync, what-if"},

	// The generator's own health: a late or short open loop measures
	// the generator, not the daemon.
	{Name: "loadgen.late_ms.p99", Unit: "ms", Better: "lower", Source: srcGen, Moves: "none", Flat: "n/a"},
	{Name: "loadgen.achieved_ratio", Unit: "ratio", Better: "higher", Source: srcGen, Moves: "none", Flat: "n/a"},
}
