//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json`; an untraced
//! run reports every end-to-end metric, a traced run every per-layer
//! metric. A layer a workload never reaches reports 0 (for example the
//! daemon's `server.service_ms_p50` on `suite`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name, unit, and which direction is better.
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better }
}

/// End-to-end metrics: what a user of `lslpc` or `lslpd` sees.
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_per_s", "1/s", true),
    m("light_ms_mean", "ms", false),
    m("heavy_ms_mean", "ms", false),
    m("sim_speedup", "x", true),
    m("ok_frac", "fraction", true),
    m("peak_rss_mb", "MiB", false),
    m("setup_s", "s", false),
];

/// Per-layer metrics from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("frontend.compile_us", "us", false),
    m("core.pass.if-convert_us", "us", false),
    m("core.pass.unroll_us", "us", false),
    m("core.pass.simplify_us", "us", false),
    m("core.pass.fold_us", "us", false),
    m("core.pass.cse_us", "us", false),
    m("core.pass.dce_us", "us", false),
    m("core.pass.vectorize_us", "us", false),
    m("analysis.miss_us", "us", false),
    m("analysis.hit_ratio", "ratio", true),
    m("vec.seeds_us", "us", false),
    m("vec.graph_us", "us", false),
    m("vec.cost_us", "us", false),
    m("vec.codegen_us", "us", false),
    m("vec.verify_us", "us", false),
    m("vec.rollback_us", "us", false),
    m("vec.attempts", "count", false),
    m("vec.trees", "count", true),
    m("vec.useful_ratio", "ratio", true),
    m("vec.graph_nodes", "count", false),
    m("vec.gathers", "count", false),
    m("vec.applied_cost", "cost", false),
    m("guard.incidents", "count", false),
    m("ir.print_us", "us", false),
    m("ir.insts_out", "count", false),
    m("interp.exec_us", "us", false),
    m("server.service_ms_p50", "ms", false),
    m("server.service_ms_p99", "ms", false),
    m("server.cache_hit_ratio", "ratio", true),
    m("server.cache_evictions", "count", false),
    m("server.queue_max", "count", false),
    m("server.pipeline_hwm", "count", false),
    m("server.retries", "count", false),
    m("server.protocol_parse_us", "us", false),
    m("server.response_parse_us", "us", false),
    m("server.cache_get_us", "us", false),
    m("server.cache_insert_us", "us", false),
    m("trace.throughput_per_s", "1/s", true),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that errored or produced wrong or non-deterministic
    /// output.
    pub failed: u64,
    /// Why operations failed (first few, for the log).
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Keep the reason for a failure (the first few are printed).
    pub fn note(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Set a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One human-readable line per metric of the run's catalogue, then the
    /// JSON result line (always last).
    pub fn render(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for why in &self.failures {
            let _ = writeln!(out, "failure: {why}");
        }
        let _ = writeln!(out, "attempted {} failed {}", self.attempted, self.failed);
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self.values.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = writeln!(out, "{:<28} {v:>14.4} {}", d.name, d.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(json, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_last_and_lists_every_metric() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.set("setup_s", 0.25);
        let text = r.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        for d in END_TO_END {
            assert!(last.contains(&format!("\"{}\"", d.name)), "{}", d.name);
        }
        r.failed = 1;
        assert!(r.render(true).lines().last().unwrap().starts_with("{\"correct\": false"));
    }

    /// `BENCHMARK.json` lists exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\"").count();
        let workloads = json.matches("\"why\"").count();
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let better = if d.higher_is_better { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.name, d.unit
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
    }
}
