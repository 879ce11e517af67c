//! The benchmark's metric lists — the single source `BENCHMARK.json`
//! is generated from (`aosi_bench manifest`) — and the result a run
//! prints.

use std::collections::BTreeMap;

use crate::stats::{highest_supported_percentile, Samples};

/// The four workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "dash_scan",
        "2M-row static cube, 2 HTTP clients, fresh literals every query: scan kernels, shard fan-out and merge do the work; working set far beyond the aggregate cache",
    ),
    (
        "realtime_mixed",
        "500k-row cube, 1 reader beside an open-loop 25k rows/s INSERT stream and a 1 Hz purge: visibility build, cache invalidation, parsing and the load path do the work",
    ),
    (
        "pinned_replay",
        "2M-row unpurged cube, 2 clients on a session pinned mid-history replaying 6 fixed statements: every read is a cache hit, so the front door and dispatch floor dominate",
    ),
    (
        "bulk_load_durable",
        "1 loader thread, time-ordered 2000-row loads under a tier budget a quarter of the dataset, WAL round every 20 batches, then recovery: load path, wal, tier and recovery only",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one
/// of these and none is ever 0: `op` is the workload's own operation
/// — a SELECT over HTTP in the three serving workloads, a 2000-row
/// `Engine::load` in `bulk_load_durable`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "aosi_bytes_per_row",
        unit: "B",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload a change in this layer
    /// should move; anything not named is predicted flat.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Single-layer numbers from the traced run, taken from outside: by
/// timing a public call, or reading a stats struct the call returns.
/// A workload in which a layer does no work reports 0 for it.
pub const PER_LAYER: [Layer; 80] = [
    layer("server.frontdoor_us_p50", "us", "lower", "op_p50_ms, ops_per_s @ pinned_replay"),
    layer("server.json_parse_us_p50", "us", "lower", "server.insert_p50_ms @ realtime_mixed"),
    layer("server.json_render_us_p50", "us", "lower", "op_p50_ms @ pinned_replay"),
    layer("server.dedup_shared_ratio", "ratio", "higher", "ops_per_s @ pinned_replay"),
    layer("server.rejected_429", "count", "lower", "failed ops everywhere"),
    layer("server.responses_5xx", "count", "lower", "failed ops everywhere"),
    layer("server.select_p99_ms", "ms", "lower", "informational tail, not gated"),
    layer("server.insert_p50_ms", "ms", "lower", "loader-visible ack latency from due time @ realtime_mixed; op_p95_ms there when it steals reader CPU"),
    layer("server.insert_p95_ms", "ms", "lower", "as server.insert_p50_ms"),
    layer("server.insert_p99_ms", "ms", "lower", "informational tail, not gated"),
    layer("server.insert_acks_per_s", "1/s", "higher", "100 when the open-loop writer keeps up @ realtime_mixed"),
    layer("sql.parse_select_us_p50", "us", "lower", "op_p50_ms @ pinned_replay"),
    layer("sql.parse_insert_us_p50", "us", "lower", "server.insert_p50_ms @ realtime_mixed"),
    layer("sql.parse_insert_ns_per_row", "ns", "lower", "server.insert_p50_ms @ realtime_mixed"),
    layer("sql.exec_overhead_us_p50", "us", "lower", "op_p50_ms @ pinned_replay"),
    layer("engine.query_us_p50", "us", "lower", "op_p50_ms @ dash_scan, realtime_mixed"),
    layer("engine.query_us_p95", "us", "lower", "op_p95_ms @ dash_scan, realtime_mixed"),
    layer("engine.dispatch_merge_us_p50", "us", "lower", "op_p50_ms @ realtime_mixed, pinned_replay"),
    layer("engine.bricks_scanned_per_query", "count", "lower", "op_p50_ms @ realtime_mixed (selective mix)"),
    layer("engine.bricks_pruned_per_query", "count", "higher", "op_p50_ms @ realtime_mixed (selective mix)"),
    layer("engine.rows_scanned_per_query", "count", "lower", "op_p50_ms @ realtime_mixed, dash_scan"),
    layer("engine.rows_visible_per_row_scanned", "ratio", "higher", "op_p50_ms @ realtime_mixed (selective mix)"),
    layer("engine.parallel_query_share", "ratio", "higher", "op_p95_ms @ dash_scan"),
    layer("engine.load_parse_us_p50", "us", "lower", "ops_per_s, op_p50_ms @ bulk_load_durable; server.insert_p50_ms @ realtime_mixed"),
    layer("engine.load_flush_us_p50", "us", "lower", "as engine.load_parse_us_p50"),
    layer("engine.load_ns_per_row", "ns", "lower", "as engine.load_parse_us_p50"),
    layer("shard.noop_map_shards_us_p50", "us", "lower", "op_p50_ms @ pinned_replay (the dispatch floor every query pays)"),
    layer("shard.tasks_per_query", "count", "lower", "op_p50_ms @ pinned_replay"),
    layer("shard.queue_depth_max", "count", "lower", "op_p95_ms @ realtime_mixed"),
    layer("shard.panics_caught", "count", "lower", "failed ops everywhere"),
    layer("query.scan_ns_per_row", "ns", "lower", "op_p50_ms, ops_per_s @ dash_scan; flat @ pinned_replay"),
    layer("query.scan_us_per_query_p50", "us", "lower", "op_p50_ms, ops_per_s @ dash_scan; ~0 @ pinned_replay"),
    layer("query.t_total_p50_ms", "ms", "lower", "locates a mix-level move"),
    layer("query.t_region_top_p50_ms", "ms", "lower", "locates a mix-level move"),
    layer("query.t_minmax_day_p50_ms", "ms", "lower", "locates a mix-level move"),
    layer("query.t_app_in_p50_ms", "ms", "lower", "locates a mix-level move"),
    layer("query.t_region_in_p50_ms", "ms", "lower", "locates a mix-level move"),
    layer("query.t_slice_p50_ms", "ms", "lower", "locates a mix-level move"),
    layer("agg.cache_hit_ratio", "ratio", "higher", "~0 @ dash_scan, ~1 @ pinned_replay (ops_per_s)"),
    layer("agg.cache_evictions", "count", "lower", "ops_per_s @ dash_scan"),
    layer("agg.cache_invalidations", "count", "lower", "server.insert_p50_ms, op_p50_ms @ realtime_mixed"),
    layer("aosi.visibility_us_per_query_p50", "us", "lower", "op_p50_ms @ realtime_mixed; ~0 @ dash_scan"),
    layer("aosi.visibility_ns_per_brick", "ns", "lower", "op_p50_ms @ realtime_mixed (a rebuild per touched brick); a cache probe @ dash_scan"),
    layer("aosi.vis_cache_hit_ratio", "ratio", "higher", "op_p50_ms @ realtime_mixed"),
    layer("aosi.vis_cache_invalidations", "count", "lower", "op_p50_ms @ realtime_mixed"),
    layer("aosi.vis_cache_evictions", "count", "lower", "op_p50_ms @ realtime_mixed"),
    layer("aosi.visible_bitmap_ns_per_entry", "ns", "lower", "op_p50_ms @ realtime_mixed"),
    layer("aosi.visible_ranges_ns_per_entry", "ns", "lower", "op_p50_ms @ realtime_mixed"),
    layer("aosi.begin_commit_us_p50", "us", "lower", "server.insert_p50_ms @ realtime_mixed"),
    layer("aosi.epochs_bytes_max", "B", "lower", "aosi_bytes_per_row; op_p95_ms @ realtime_mixed"),
    layer("maintenance.purge_ms_p50", "ms", "lower", "op_p95_ms, server.insert_p95_ms @ realtime_mixed (foreground stalls)"),
    layer("maintenance.purge_ms_max", "ms", "lower", "as maintenance.purge_ms_p50"),
    layer("maintenance.entries_reclaimed", "count", "higher", "aosi_bytes_per_row @ realtime_mixed"),
    layer("maintenance.cycles", "count", "higher", "aosi_bytes_per_row @ realtime_mixed"),
    layer("columnar.data_bytes_per_row", "B", "lower", "peak_rss_mb @ dash_scan"),
    layer("columnar.dictionary_bytes", "B", "lower", "peak_rss_mb @ dash_scan"),
    layer("wal.flush_round_ms_p50", "ms", "lower", "ops_per_s, op_p95_ms @ bulk_load_durable"),
    layer("wal.flush_mb_per_s", "MB/s", "higher", "ops_per_s @ bulk_load_durable"),
    layer("wal.rounds", "count", "lower", "ops_per_s @ bulk_load_durable"),
    layer("wal.file_syncs", "count", "lower", "ops_per_s @ bulk_load_durable"),
    layer("wal.dir_syncs", "count", "lower", "ops_per_s @ bulk_load_durable"),
    layer("wal.bytes_per_row", "B", "lower", "operator-visible write amplification @ bulk_load_durable (exact)"),
    layer("wal.recover_s", "s", "lower", "restart time @ bulk_load_durable"),
    layer("wal.recover_rows_per_s", "1/s", "higher", "restart time @ bulk_load_durable"),
    layer("wal.rounds_applied", "count", "lower", "wal.recover_s @ bulk_load_durable"),
    layer("tier.enforce_ms_p50", "ms", "lower", "ops_per_s, op_p95_ms @ bulk_load_durable"),
    layer("tier.spills", "count", "lower", "ops_per_s @ bulk_load_durable"),
    layer("tier.reloads", "count", "lower", "op_p95_ms @ bulk_load_durable"),
    layer("tier.reloads_per_spill", "ratio", "lower", "ops_per_s @ bulk_load_durable"),
    layer("tier.spilled_file_bytes_per_resident_byte", "ratio", "lower", "disk cost of the cold tier @ bulk_load_durable"),
    layer("tier.max_resident_over_budget", "ratio", "lower", "peak_rss_mb @ bulk_load_durable; above 1 fails the run"),
    layer("tier.dataset_over_budget", "ratio", "higher", "validity: the dataset must stay >= 4x the budget"),
    layer("tier.spill_failures", "count", "lower", "failed ops @ bulk_load_durable"),
    layer("tier.reload_failures", "count", "lower", "failed ops @ bulk_load_durable"),
    layer("bench.generator_late_ms_p95", "ms", "lower", "validity: how late the open-loop writer ran"),
    layer("bench.trace_overhead_pct", "%", "lower", "validity: recorded vs unrecorded op_p50 in the traced pass"),
    layer("bench.traced_ops", "count", "higher", "validity: operations the traced pass replayed"),
    layer("bench.op_samples", "count", "higher", "validity: samples behind op_p50_ms / op_p95_ms"),
    layer("bench.op_tail_percentile", "%", "higher", "validity: highest percentile with >= 10 samples beyond it"),
    layer("bench.workload_fingerprint", "hash", "higher", "validity: same seed, same generated operations"),
];

/// Metric values of one run, checked against the lists above.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not listed in report.rs"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The traced run's validity numbers: what was driven, how many
    /// samples stand behind the op percentiles, and what recording
    /// cost (`plain` and `recorded` are the same call's times with
    /// recording off and on).
    pub fn set_validity(
        &mut self,
        fingerprint: u32,
        op_samples: usize,
        plain: &mut Samples,
        recorded: &mut Samples,
    ) {
        self.set("bench.workload_fingerprint", fingerprint as f64);
        self.set("bench.op_samples", op_samples as f64);
        self.set(
            "bench.op_tail_percentile",
            highest_supported_percentile(op_samples).unwrap_or(0.0),
        );
        let plain = plain.percentile_or_zero(50.0);
        let overhead = recorded.percentile_or_zero(50.0) - plain;
        self.set(
            "bench.trace_overhead_pct",
            if plain == 0.0 {
                0.0
            } else {
                100.0 * overhead / plain
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// `(name, value, unit)` of every listed metric of the run's kind
    /// (`--trace 0`: end to end, `--trace 1`: per layer), in list
    /// order. An end-to-end metric must have been measured; an idle
    /// layer reads 0.
    pub fn rows(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.metrics.get(m.name).unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                    (m.name, value, m.unit)
                })
                .collect()
        }
    }

    /// The contract's result line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = self
            .rows(trace)
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The text of the root `BENCHMARK.json`.
pub fn manifest(run_seconds: u32) -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"aosi_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"aosi_bench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

/// The metric tables of `README.md`, as markdown.
pub fn metric_tables() -> String {
    let mut out = String::from("| metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("\n| layer metric | unit | better | moves |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves
        ));
    }
    out
}
