//! The metric registry — every name a later performance claim is made in —
//! and the run report printed under those names.
//!
//! `BENCHMARK.json` is generated from these tables
//! (`stl-benchmark --print-benchmark-json`) and a unit test fails when the
//! committed file and the tables drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Stat;
use crate::workloads::SPECS;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change is a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (README: which leg of which workload produces each).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("dist_ns_p50", "ns", Lower, 0.25),
    e2e("many_us_p50", "us", Lower, 0.25),
    e2e("batch_ms_p50", "ms", Lower, 0.25),
    e2e("req_us_p50", "us", Lower, 0.25),
    e2e("ok_share", "share", Higher, 0.001),
    e2e("index_bytes_per_vertex", "B", Lower, 0.005),
    e2e("rss_peak_mb", "MB", Lower, 0.1),
];

/// Single layers, named `<crate>.<module>.<what>`; reported by the traced
/// run. No bounds: they explain a movement, they do not gate one.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workloads.reads_per_s", "1/s", Higher),
    layer("workloads.gen_late_us_p99", "us", Lower),
    layer("workloads.ops_hash", "hash", Lower),
    layer("core.hierarchy.build_s", "s", Lower),
    layer("core.labelling.build_s", "s", Lower),
    layer("core.labelling.compact_s", "s", Lower),
    layer("core.hierarchy.height", "count", Lower),
    layer("core.hierarchy.root_cut_len", "count", Lower),
    layer("core.labelling.label_entries", "count", Lower),
    layer("core.labelling.label_bytes", "B", Lower),
    layer("core.labelling.deep_arena_bytes", "B", Lower),
    layer("core.spine.bytes", "B", Lower),
    layer("core.hierarchy.lca_ns", "ns", Lower),
    layer("core.query.min_plus_ns_per_entry", "ns", Lower),
    layer("core.query.dist_ns_p99", "ns", Lower),
    layer("core.query.near_ns", "ns", Lower),
    layer("core.query.far_ns", "ns", Lower),
    layer("core.query.prefix_len_mean", "count", Lower),
    layer("core.spine.lanes", "count", Lower),
    layer("core.spine.answered_share", "share", Higher),
    layer("core.spine.mask_reject_share", "share", Higher),
    layer("core.query.chunked_slice_share", "share", Lower),
    layer("core.labelling.flat_share", "share", Higher),
    layer("core.query.many_ns_per_target", "ns", Lower),
    layer("core.shard.apply_ms_p50", "ms", Lower),
    layer("core.shard.apply_ms_p95", "ms", Lower),
    layer("core.shard.apply16_ms_p50", "ms", Lower),
    layer("core.shard.critical_path_share", "share", Lower),
    layer("core.shard.trees_touched_per_batch", "count", Lower),
    layer("core.shard.trees_skipped_per_batch", "count", Higher),
    layer("core.pareto.searches_per_update", "count", Lower),
    layer("core.pareto.pops_per_update", "count", Lower),
    layer("core.pareto.label_writes_per_update", "count", Lower),
    layer("graph.cow.bytes_copied_per_batch", "B", Lower),
    layer("graph.cow.chunks_copied_per_batch", "count", Lower),
    layer("graph.cow.clone_us", "us", Lower),
    layer("server.server.updates_per_s", "1/s", Higher),
    layer("server.server.batch_ms_p95", "ms", Lower),
    layer("server.transport.req_us_p75", "us", Lower),
    layer("server.transport.req_us_p95", "us", Lower),
    layer("server.server.rss_run_peak_mb", "MB", Lower),
    layer("server.server.validate_us", "us", Lower),
    layer("server.server.publish_us_mean", "us", Lower),
    layer("server.server.apply_share", "share", Higher),
    layer("server.server.queue_self_ms", "ms", Lower),
    layer("server.server.compactions", "count", Lower),
    layer("server.server.bytes_flattened", "B", Lower),
    layer("server.snapshot.acquire_ns", "ns", Lower),
    layer("server.batcher.wait_ms_p50", "ms", Lower),
    layer("server.batcher.requests_per_batch", "count", Higher),
    layer("server.batcher.flushes_by_timer", "count", Lower),
    layer("server.batcher.flushes_by_size", "count", Lower),
    layer("server.batcher.requests_shed", "count", Lower),
    layer("server.wal.append_us_p50", "us", Lower),
    layer("server.wal.append_us_p95", "us", Lower),
    layer("server.wal.records", "count", Lower),
    layer("server.wal.fsyncs", "count", Lower),
    layer("server.wal.bytes_per_update", "B", Lower),
    layer("server.durable.shutdown_s", "s", Lower),
    layer("server.durable.recovery_s", "s", Lower),
    layer("server.durable.records_replayed", "count", Lower),
    layer("server.proto.codec_ns", "ns", Lower),
    layer("server.proto.many_codec_ns", "ns", Lower),
    layer("server.transport.rtt_us_p50", "us", Lower),
    layer("server.transport.self_us", "us", Lower),
    layer("server.transport.requests_served", "count", Higher),
    layer("server.transport.connections_shed", "count", Lower),
    layer("server.transport.frames_rejected", "count", Lower),
    layer("server.transport.many_scratch_reuses", "count", Higher),
    layer("server.router.hop_us_p50", "us", Lower),
    layer("server.router.update_fanout_ms", "ms", Lower),
    layer("server.router.owner_routed_share", "share", Lower),
    layer("server.router.queries_routed", "count", Higher),
    layer("server.router.updates_routed", "count", Higher),
    layer("server.router.failfast_errors", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// Seconds one run measures (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// The canonical `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in SPECS.iter().enumerate() {
        let sep = if i + 1 < SPECS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Values measured by one run, by metric name, each with a short note on
/// how it was obtained (sample count, slices, percentile).
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.note(name, value, String::new());
    }

    pub fn note(&mut self, name: &'static str, value: f64, note: String) {
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        let clash = self.values.insert(name, (value, note));
        assert!(clash.is_none(), "metric {name} reported twice");
    }

    /// Report a timing, noting sample count, percentile and chunks.
    pub fn stat(&mut self, name: &'static str, stat: Stat) {
        let note = match stat.chunks {
            1 => format!("n={} p{} of the whole sample", stat.n, stat.pct),
            k => format!("n={} p{} lowest of {k} chunks", stat.n, stat.pct),
        };
        self.note(name, stat.value, note);
    }

    /// Human-readable rows for the metrics of `table`, in table order.
    /// Panics if a registered metric was not produced — a harness bug.
    pub fn rows(&self, table: &[MetricDef]) -> String {
        let mut s = String::new();
        for m in table {
            let (v, note) = self.expect(m);
            let _ = writeln!(s, "metric\t{}\t{}\t{}\t{}", m.name, v, m.unit, note);
        }
        s
    }

    /// The `metrics` object of the result line, for `table`.
    pub fn json_metrics(&self, table: &[MetricDef]) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.expect(m).0,
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn expect(&self, m: &MetricDef) -> &(f64, String) {
        let v = self.values.get(m.name).unwrap_or_else(|| panic!("metric {} not produced", m.name));
        // A bound is a share of the parent's median: an end-to-end metric
        // that reads 0 cannot be gated.
        assert!(m.bound.is_none() || v.0 != 0.0, "end-to-end metric {} is 0", m.name);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_obeys_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(names.insert(m.name), "metric name {} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for w in &SPECS {
            assert!(valid_name(w.name) && names.insert(w.name), "bad workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        assert!((2..=8).contains(&SPECS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn report_prints_every_registered_metric_with_all_digits() {
        let table = [e2e("a_ms", "ms", Lower, 0.1), e2e("b_per_s", "1/s", Higher, 0.1)];
        let mut r = Report::default();
        r.set("a_ms", 1.234_567_890_123);
        r.stat("b_per_s", Stat { value: 2.5, n: 100, chunks: 5, pct: 50.0 });
        assert_eq!(
            r.json_metrics(&table),
            "{\"a_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}, \
             \"b_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}}"
        );
        assert!(r.rows(&table).contains("metric\tb_per_s\t2.5\t1/s\tn=100 p50 lowest of 5 chunks"));
    }

    #[test]
    #[should_panic(expected = "not produced")]
    fn a_missing_metric_is_a_harness_bug() {
        Report::default().json_metrics(&[e2e("a_ms", "ms", Lower, 0.1)]);
    }
}
