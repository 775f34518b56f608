//! # lslp-perfbench — the repository benchmark
//!
//! Three workloads, each run from one process by
//! `perfbench --workload <suite|gen_large|serve> --seed N --seconds S --trace 0|1`:
//!
//! * `suite` ([`compile`]): the 16 paper and extended kernels, compiled
//!   from SLC source in a closed loop (small functions: per-call costs);
//! * `gen_large` ([`compile`]): 25 seeded generated functions of 8 to 32
//!   four-lane store groups, compiled from IR (super-linear passes);
//! * `serve` ([`serve`]): the `lslpd` daemon as its own process under a
//!   closed-loop, pipelined mix of cache hits and never-seen sources.
//!
//! Every output is checked ([`oracle`]). An untraced run prints the
//! end-to-end metrics; a traced run records spans around each layer call
//! ([`trace`], [`layers`]) and prints the per-layer metrics
//! ([`report::PER_LAYER`]). Times are scaled to nominal host speed by a
//! reference task interleaved with the workload ([`pace`]). The last line
//! of standard output is the JSON result.

pub mod compile;
pub mod layers;
pub mod oracle;
pub mod pace;
pub mod report;
pub mod serve;
pub mod trace;
pub mod util;

use lslp::Sabotage;

use crate::layers::mean_us;
use crate::report::Report;
use crate::trace::Tracer;

/// The paper's evaluation target, used by every workload.
pub const TARGET: &str = "skylake-avx2";
/// The `timeout-ms` sent with every `serve` request: far above any
/// compile, so the daemon's budget never changes an output.
pub const TIMEOUT_MS: u64 = 60_000;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// A workload name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The kernel suite from SLC source.
    Suite,
    /// Large generated functions from IR.
    GenLarge,
    /// `lslpd` under a hit/miss request mix.
    Serve,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite" => Some(Workload::Suite),
            "gen_large" => Some(Workload::GenLarge),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::GenLarge => "gen_large",
            Workload::Serve => "serve",
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Deliberate miscompilation, for checking that the oracle fires.
    pub sabotage: Sabotage,
    /// The `lslpd` executable (`serve` only).
    pub lslpd: std::path::PathBuf,
}

/// Run one workload.
///
/// # Errors
///
/// A message when the run cannot start: set-up failed or the daemon did
/// not come up. Wrong outputs are not errors; they are counted in the
/// report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::Suite | Workload::GenLarge => compile::run(cfg),
        Workload::Serve => serve::run(cfg),
    }
}

/// How many operations each group of layer spans covers.
pub struct LayerCounts {
    /// Compile ops traced (frontend, passes, printer).
    pub ops: usize,
    /// Functions whose vectorizer phases were replayed.
    pub replayed: usize,
    /// Interpreter executions.
    pub executions: usize,
    /// Items driven through the protocol parsers and the cache.
    pub wire_ops: usize,
}

/// Per-layer metric ← span name whose mean self time it reports, and
/// which count it is averaged over.
#[allow(clippy::type_complexity)]
const SPAN_METRICS: &[(&str, &str, fn(&LayerCounts) -> usize)] = &[
    ("frontend.compile_us", "frontend.compile", |c| c.ops),
    ("core.pass.if-convert_us", "core.pass.if-convert", |c| c.ops),
    ("core.pass.unroll_us", "core.pass.unroll", |c| c.ops),
    ("core.pass.simplify_us", "core.pass.simplify", |c| c.ops),
    ("core.pass.fold_us", "core.pass.fold", |c| c.ops),
    ("core.pass.cse_us", "core.pass.cse", |c| c.ops),
    ("core.pass.dce_us", "core.pass.dce", |c| c.ops),
    ("core.pass.vectorize_us", "core.pass.vectorize", |c| c.ops),
    ("ir.print_us", "ir.print", |c| c.ops),
    ("vec.seeds_us", "vec.seeds", |c| c.replayed),
    ("vec.graph_us", "vec.graph", |c| c.replayed),
    ("vec.cost_us", "vec.cost", |c| c.replayed),
    ("vec.codegen_us", "vec.codegen", |c| c.replayed),
    ("vec.verify_us", "vec.verify", |c| c.replayed),
    ("vec.rollback_us", "vec.rollback", |c| c.replayed),
    ("interp.exec_us", "interp.exec", |c| c.executions),
    ("server.protocol_parse_us", "server.protocol_parse", |c| c.wire_ops),
    ("server.response_parse_us", "server.response_parse", |c| c.wire_ops),
    ("server.cache_get_us", "server.cache_get", |c| c.wire_ops),
    ("server.cache_insert_us", "server.cache_insert", |c| c.wire_ops),
];

/// Set every span-derived per-layer metric from `tr`'s self times.
pub fn report_layers(report: &mut Report, tr: &Tracer, counts: LayerCounts) {
    let self_times = tr.self_times();
    for &(metric, span, per) in SPAN_METRICS {
        report.set(metric, mean_us(&self_times, span, per(&counts)));
    }
}

/// Write the run's spans to `out/trace-<workload>.tsv` in the benchmark
/// directory (overwritten by each traced run of the workload).
pub fn write_trace(cfg: &Config, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.tsv", cfg.workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.render()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}
