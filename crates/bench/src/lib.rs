//! # lslp-bench
//!
//! The measurement harness that regenerates every table and figure of the
//! paper's evaluation (§5). Each figure has a dedicated binary
//! (`fig09_speedup`, `fig10_static_cost`, …, `table2`) and
//! `all_experiments` runs the full set, printing the same rows/series the
//! paper reports.
//!
//! Measurement substitutions (see DESIGN.md):
//!
//! * execution speedup = ratio of cost-weighted simulated cycles
//!   ([`lslp_interp::perf`]) instead of Skylake wall-clock;
//! * whole benchmarks (Figs 11–12) are the synthetic programs of
//!   [`lslp_kernels::wholeprog`];
//! * compilation time (Fig 14) is real wall-clock of our own pipeline
//!   (frontend + vectorizer pass), normalized to the `O3` configuration.

#![warn(missing_docs)]

use std::time::Instant;

use lslp::{vectorize_function, CompileOptions};
use lslp_interp::perf::body_cycles;
use lslp_kernels::{Kernel, WholeProgram};
use lslp_target::CostModel;

/// Build the validated [`CompileOptions`] for one configuration preset on
/// one target — every measurement constructs its options through the
/// public builder, like `lslpc` and `lslpd` do.
fn options_for(config: &str, tm: &CostModel) -> CompileOptions {
    CompileOptions::preset(config)
        .target(&tm.spec_string())
        .build()
        .unwrap_or_else(|e| panic!("unknown configuration `{config}`: {e}"))
}

/// The four headline configurations of §5.1, in the paper's order.
pub const CONFIG_NAMES: [&str; 4] = ["O3", "SLP-NR", "SLP", "LSLP"];

/// The named targets of the registry, narrowest first — the column order
/// of the target-matrix extension experiment.
pub const TARGET_NAMES: [&str; 4] = ["sse4.2", "neon128", "skylake-avx2", "avx512"];

/// Per-kernel, per-configuration measurements.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Static vectorization cost per configuration (Fig 10).
    pub static_cost: Vec<i64>,
    /// Simulated execution cycles per configuration.
    pub cycles: Vec<i64>,
    /// Speedup over `O3` per configuration (Fig 9).
    pub speedup: Vec<f64>,
    /// Pass-guard incidents per configuration (should be all zero for the
    /// shipped kernel suite; a non-zero count means the guard rolled a
    /// transform back instead of miscompiling).
    pub incidents: Vec<usize>,
    /// Vector factors of the committed trees per configuration, in commit
    /// order. Empty when a configuration vectorized nothing.
    pub vfs: Vec<Vec<usize>>,
}

/// Measure one kernel under the given configuration names.
///
/// # Panics
///
/// Panics on unknown configuration names or kernel execution failure —
/// both indicate harness bugs.
pub fn measure_kernel(k: &Kernel, configs: &[&str], iters: usize) -> KernelRow {
    measure_kernel_on(k, configs, iters, &CostModel::skylake_avx2())
}

/// [`measure_kernel`] against an explicit target. The default-target
/// figures delegate here with the Skylake-class model, so the paper's
/// tables are unchanged; the target-matrix extension sweeps the registry.
///
/// # Panics
///
/// Same conditions as [`measure_kernel`].
pub fn measure_kernel_on(k: &Kernel, configs: &[&str], iters: usize, tm: &CostModel) -> KernelRow {
    let mut static_cost = Vec::new();
    let mut cycles = Vec::new();
    let mut incidents = Vec::new();
    let mut vfs = Vec::new();
    for &name in configs {
        let opts = options_for(name, tm);
        let mut f = k.compile();
        let report = vectorize_function(&mut f, opts.config(), tm);
        let mut mem = k.setup_memory(&f, iters);
        let c = k
            .run(&f, &mut mem, iters, tm)
            .unwrap_or_else(|e| panic!("{} under {name} on {}: {e}", k.name, tm.name));
        static_cost.push(report.applied_cost);
        cycles.push(c);
        incidents.push(report.incidents.len());
        vfs.push(report.attempts.iter().filter(|a| a.vectorized).map(|a| a.vf).collect());
    }
    let base = cycles[0] as f64;
    let speedup = cycles.iter().map(|&c| base / c as f64).collect();
    KernelRow { name: k.name.to_string(), static_cost, cycles, speedup, incidents, vfs }
}

/// Per-kernel measurements for the loop-study extension: a [`KernelRow`]
/// plus the CFG-flattening counters of [`lslp::PipelineReport`] per
/// configuration.
#[derive(Clone, Debug)]
pub struct LoopKernelRow {
    /// The standard per-configuration measurements.
    pub row: KernelRow,
    /// Branch diamonds turned into `select`s by if-conversion.
    pub if_converted: Vec<usize>,
    /// Counted loops fully unrolled ahead of SLP seeding.
    pub unrolled: Vec<usize>,
}

/// [`measure_loop_kernel_on`] on the default Skylake-class target.
///
/// # Panics
///
/// Same conditions as [`measure_kernel`].
pub fn measure_loop_kernel(k: &Kernel, configs: &[&str], iters: usize) -> LoopKernelRow {
    measure_loop_kernel_on(k, configs, iters, &CostModel::skylake_avx2())
}

/// [`measure_kernel_on`] through the whole pipeline ([`lslp::run_pipeline`])
/// instead of the bare vectorizer pass. The loop-study kernels compile to
/// small CFGs; only the pipeline's if-conversion and unroll-and-SLP passes
/// flatten them into the straight-line form the vectorizer accepts, so the
/// bare-pass harness would leave them untouched under every configuration.
/// Every configuration (including `O3`) runs the same scalar pipeline, so
/// the baseline is the *flattened* scalar code and the reported speedup
/// isolates vectorization rather than loop-overhead removal.
///
/// # Panics
///
/// Same conditions as [`measure_kernel`].
pub fn measure_loop_kernel_on(
    k: &Kernel,
    configs: &[&str],
    iters: usize,
    tm: &CostModel,
) -> LoopKernelRow {
    let mut static_cost = Vec::new();
    let mut cycles = Vec::new();
    let mut incidents = Vec::new();
    let mut vfs = Vec::new();
    let mut if_converted = Vec::new();
    let mut unrolled = Vec::new();
    for &name in configs {
        let opts = options_for(name, tm);
        let mut f = k.compile();
        let report = lslp::run_pipeline(&mut f, opts.config(), tm);
        let mut mem = k.setup_memory(&f, iters);
        let c = k
            .run(&f, &mut mem, iters, tm)
            .unwrap_or_else(|e| panic!("{} under {name} on {}: {e}", k.name, tm.name));
        static_cost.push(report.vectorize.applied_cost);
        cycles.push(c);
        incidents.push(report.incidents.len() + report.vectorize.incidents.len());
        vfs.push(report.vectorize.attempts.iter().filter(|a| a.vectorized).map(|a| a.vf).collect());
        if_converted.push(report.if_converted);
        unrolled.push(report.unrolled);
    }
    let base = cycles[0] as f64;
    let speedup = cycles.iter().map(|&c| base / c as f64).collect();
    LoopKernelRow {
        row: KernelRow { name: k.name.to_string(), static_cost, cycles, speedup, incidents, vfs },
        if_converted,
        unrolled,
    }
}

/// Per-benchmark whole-program measurements (Figs 11–12).
#[derive(Clone, Debug)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: String,
    /// Total applied static cost per configuration (Fig 11 plots this
    /// normalized to SLP).
    pub static_cost: Vec<i64>,
    /// Hotness-weighted simulated cycles per configuration.
    pub weighted_cycles: Vec<f64>,
    /// Speedup over `O3` (Fig 12).
    pub speedup: Vec<f64>,
    /// Pass-guard incidents per configuration, summed over the benchmark's
    /// functions.
    pub incidents: Vec<usize>,
}

/// Measure one synthetic whole-program benchmark.
pub fn measure_benchmark(wp: &WholeProgram, configs: &[&str]) -> BenchmarkRow {
    let tm = CostModel::skylake_avx2();
    let mut static_cost = Vec::new();
    let mut weighted_cycles = Vec::new();
    let mut incidents = Vec::new();
    for &name in configs {
        let cfg = options_for(name, &tm).config().clone();
        let mut cost = 0i64;
        let mut cyc = 0f64;
        let mut inc = 0usize;
        for (p, &w) in wp.functions.iter().zip(&wp.weights) {
            let mut f = p.function.clone();
            let report = vectorize_function(&mut f, &cfg, &tm);
            cost += report.applied_cost;
            inc += report.incidents.len();
            // Straight-line code: one execution = static body cycles; the
            // hotness weight stands in for the invocation count.
            cyc += w * body_cycles(&f, &tm) as f64;
        }
        static_cost.push(cost);
        weighted_cycles.push(cyc);
        incidents.push(inc);
    }
    // Dilute with the benchmark's non-vectorizable background execution
    // (see `WholeProgram::background_factor`): configs differ only on the
    // straight-line regions, exactly as in the paper's Figure 12.
    let background = wp.background_factor * weighted_cycles[0];
    for c in &mut weighted_cycles {
        *c += background;
    }
    let base = weighted_cycles[0];
    let speedup = weighted_cycles.iter().map(|&c| base / c).collect();
    BenchmarkRow { name: wp.name.to_string(), static_cost, weighted_cycles, speedup, incidents }
}

/// Compilation-time measurement for Fig 14: wall-clock of the full
/// compilation pipeline (frontend + scalar `-O3`-style passes + the
/// configured vectorizer, see [`lslp::run_pipeline`]) over `reps`
/// repetitions after one discarded warm-up run (the paper's methodology).
/// Individual runs are microseconds here, so the median is reported to
/// suppress scheduler noise.
pub fn measure_compile_time(k: &Kernel, cfg_name: &str, reps: usize) -> f64 {
    let tm = CostModel::skylake_avx2();
    let cfg = options_for(cfg_name, &tm).config().clone();
    // Each sample batches several pipeline runs so a sample is comfortably
    // above timer resolution.
    const BATCH: usize = 8;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let start = Instant::now();
        for _ in 0..BATCH {
            let m = lslp_frontend::compile(k.src).expect("kernel compiles");
            for mut f in m.functions {
                lslp::run_pipeline(&mut f, &cfg, &tm);
                std::hint::black_box(&f);
            }
        }
        let dt = start.elapsed().as_secs_f64() / BATCH as f64;
        if rep > 0 {
            samples.push(dt);
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median per-phase compile-time breakdown (seconds) for one kernel under
/// one configuration: where the pipeline's wall-clock actually goes.
#[derive(Clone, Copy, Debug)]
pub struct CompilePhases {
    /// Whole-pipeline wall clock (scalar rounds + vectorizer + final DCE).
    pub total: f64,
    /// Scalar simplification rounds (simplify/fold/cse/dce).
    pub scalar: f64,
    /// The vectorizer pass proper.
    pub vectorize: f64,
    /// Analysis recomputation on cache misses. This time is *included* in
    /// the pass times above (analyses run lazily inside passes); reporting
    /// it separately shows how much the [`lslp::AnalysisManager`] cache is
    /// saving versus recomputing per use.
    pub analysis: f64,
}

/// Measure the per-phase compile-time breakdown for Fig 14's
/// scalar-vs-vectorizer-vs-analysis rows. Uses the same
/// batch-median methodology as [`measure_compile_time`], but times the
/// optimization pipeline only (no frontend) via [`lslp::run_pipeline`]'s
/// [`lslp::PipelineReport`] phase timers.
pub fn measure_compile_phases(k: &Kernel, cfg_name: &str, reps: usize) -> CompilePhases {
    let tm = CostModel::skylake_avx2();
    let cfg = options_for(cfg_name, &tm).config().clone();
    const BATCH: usize = 8;
    let m = lslp_frontend::compile(k.src).expect("kernel compiles");
    let mut totals = Vec::with_capacity(reps);
    let mut scalars = Vec::with_capacity(reps);
    let mut vectors = Vec::with_capacity(reps);
    let mut analyses = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let (mut total, mut scalar, mut vector, mut analysis) = (0f64, 0f64, 0f64, 0f64);
        for _ in 0..BATCH {
            for proto in &m.functions {
                let mut f = proto.clone();
                let report = lslp::run_pipeline(&mut f, &cfg, &tm);
                total += report.total_time.as_secs_f64();
                scalar += report.scalar_time.as_secs_f64();
                vector += report.vectorize.elapsed.as_secs_f64();
                analysis += report.analysis_time.as_secs_f64();
                std::hint::black_box(&f);
            }
        }
        if rep > 0 {
            totals.push(total / BATCH as f64);
            scalars.push(scalar / BATCH as f64);
            vectors.push(vector / BATCH as f64);
            analyses.push(analysis / BATCH as f64);
        }
    }
    let median = |xs: &mut Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    CompilePhases {
        total: median(&mut totals),
        scalar: median(&mut scalars),
        vectorize: median(&mut vectors),
        analysis: median(&mut analyses),
    }
}

/// Map `f` over `0..n` on up to `jobs` threads, returning results in
/// index order — so a parallel harness run produces byte-identical tables
/// to the sequential one (`jobs <= 1` degenerates to a plain loop, and the
/// per-index work itself must be deterministic, which holds for the
/// simulated-cycle measurements but *not* for wall-clock ones; keep
/// compile-time figures sequential).
///
/// Work is distributed by an atomic index counter (work stealing), so
/// uneven kernels don't serialize behind a static partition.
pub fn par_map_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
        for _ in 0..jobs.min(n) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, value) in rx {
            slots[i] = Some(value);
        }
    });
    slots.into_iter().map(|s| s.expect("every index produced")).collect()
}

/// Geometric mean of strictly positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    debug_assert!(xs.iter().all(|&x| x > 0.0));
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render a fixed-width table: a header row plus data rows.
pub fn format_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |row: &[String], widths: &[usize]| -> String {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                if c == 0 {
                    format!("{cell:<width$}", width = widths[c])
                } else {
                    format!("{cell:>width$}", width = widths[c])
                }
            })
            .collect();
        cells.join("  ")
    };
    out.push_str(&fmt_row(headers, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_measurement_is_consistent() {
        let k = lslp_kernels::motivation_kernels()
            .into_iter()
            .find(|k| k.name == "motivation_loads")
            .unwrap();
        let row = measure_kernel(&k, &CONFIG_NAMES, 8);
        assert_eq!(row.speedup[0], 1.0, "O3 is the baseline");
        assert_eq!(row.static_cost[0], 0);
        assert_eq!(row.static_cost[3], -6);
        assert!(row.speedup[3] > row.speedup[2], "LSLP beats SLP on Fig 2");
        assert!(row.incidents.iter().all(|&n| n == 0), "clean kernels raise no incidents");
    }

    #[test]
    fn benchmark_measurement_shows_dilution() {
        let wp = lslp_kernels::synthesize("410.bwaves");
        let row = measure_benchmark(&wp, &CONFIG_NAMES);
        // Whole-program speedups are small but real (Fig 12's story).
        assert!(row.speedup[3] >= row.speedup[0]);
        assert!(row.static_cost[3] <= row.static_cost[2]);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["name".into(), "x".into()],
            &[vec!["a".into(), "1.00".into()], vec!["bb".into(), "10.00".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with(" 1.00"));
    }

    #[test]
    fn par_map_preserves_index_order() {
        let seq = par_map_indexed(17, 1, |i| i * i);
        let par = par_map_indexed(17, 4, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(par[16], 256);
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn parallel_kernel_measurement_matches_sequential() {
        // The --jobs satellite contract: simulated-cycle measurements are
        // deterministic, so the parallel harness must reproduce the
        // sequential rows exactly.
        let kernels = lslp_kernels::motivation_kernels();
        let measure = |i: usize| measure_kernel(&kernels[i], &CONFIG_NAMES, 8);
        let seq = par_map_indexed(kernels.len(), 1, measure);
        let par = par_map_indexed(kernels.len(), 4, measure);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.static_cost, b.static_cost);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.speedup, b.speedup);
        }
    }

    #[test]
    fn compile_time_is_positive() {
        let k = &lslp_kernels::motivation_kernels()[0];
        let t = measure_compile_time(k, "LSLP", 3);
        assert!(t > 0.0);
    }

    #[test]
    fn compile_phases_nest_inside_total() {
        let k = &lslp_kernels::motivation_kernels()[0];
        let p = measure_compile_phases(k, "LSLP", 3);
        assert!(p.total > 0.0);
        assert!(p.scalar > 0.0, "scalar rounds always run under --pipeline");
        assert!(p.vectorize > 0.0, "LSLP vectorizes this kernel");
        // Medians of independent samples may not add exactly, but each
        // phase must be bounded by (a small multiple of) the total.
        assert!(p.scalar < p.total && p.vectorize < p.total);
        assert!(p.analysis < p.total, "analysis time is a subset of pass time");
    }
}

pub mod figures;
