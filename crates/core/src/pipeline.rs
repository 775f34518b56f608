//! The `-O3`-style optimization pipeline.
//!
//! Mirrors the paper's experimental setup at our scale: every configuration
//! runs the same scalar optimization pipeline (simplification, constant
//! folding, CSE, DCE — the stand-in for `-O3`), and only the vectorizer
//! differs (`O3` = disabled, `SLP-NR`/`SLP`/`LSLP` = enabled with the
//! respective reordering strategy). Figure 14's compilation times are
//! measured over this pipeline.
//!
//! The pipeline is a thin schedule over the [`crate::pm::PassManager`]:
//! each pass runs as a guarded transaction, pulls its analyses from a
//! shared [`AnalysisManager`], and reports timings and counters that
//! surface in the [`PipelineReport`].

use std::time::{Duration, Instant};

use lslp_analysis::{AnalysisManager, CacheStats};
use lslp_ir::Function;
use lslp_target::CostModel;

use crate::config::VectorizerConfig;
use crate::guard::{GuardError, GuardMode, Incident};
use crate::pass::VectorizeReport;
use crate::pm::{
    CsePass, DcePass, FoldPass, IfConvertPass, PassContext, PassManager, PassTiming, SimplifyPass,
    UnrollLoopsPass, VectorizePass,
};
use crate::stats::Statistics;

/// Statistics from one pipeline run over a function.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Branch diamonds turned into `select`s by if-conversion.
    pub if_converted: usize,
    /// Counted loops fully unrolled before seeding.
    pub unrolled: usize,
    /// Rewrites performed by algebraic simplification.
    pub simplified: usize,
    /// Instructions folded to constants.
    pub folded: usize,
    /// Instructions merged by CSE.
    pub cse_merged: usize,
    /// Instructions removed by DCE (all phases).
    pub dce_removed: usize,
    /// The vectorizer's report (empty when disabled).
    pub vectorize: VectorizeReport,
    /// Guard incidents from the *scalar* passes (the vectorizer's own
    /// incidents are in [`VectorizeReport::incidents`]).
    pub incidents: Vec<Incident>,
    /// Wall-clock time of the scalar pipeline (excluding the vectorizer).
    pub scalar_time: Duration,
    /// Total wall-clock time including the vectorizer.
    pub total_time: Duration,
    /// Per-pass wall-clock timings, in execution order
    /// (`lslpc --print-pass-times`).
    pub pass_timings: Vec<PassTiming>,
    /// Named per-pass counters (`lslpc --stats`).
    pub stats: Statistics,
    /// Cumulative hit/miss/invalidation counters of the analysis manager
    /// the run used, read when this run ended. A [`crate::Session`] shares
    /// one manager across its compiles, so these include every earlier
    /// function of the session; subtract consecutive reports for one run.
    pub analysis_cache: CacheStats,
    /// Cumulative time the same manager spent computing analyses (cache
    /// misses), read when this run ended; cumulative like
    /// [`PipelineReport::analysis_cache`].
    pub analysis_time: Duration,
}

/// Number of scalar clean-up rounds before the vectorizer.
const SCALAR_ROUNDS: usize = 2;

/// Which passes a pipeline run schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Schedule {
    /// Control-flow lowering, the scalar rounds, the vectorizer and a
    /// final DCE: the `-O3`-style pipeline.
    Full,
    /// The vectorizer alone (the default `lslpc` path).
    VectorizeOnly,
}

/// Run the full pipeline over one function.
pub fn run_pipeline(f: &mut Function, cfg: &VectorizerConfig, tm: &CostModel) -> PipelineReport {
    try_run_pipeline(f, cfg, tm)
        .unwrap_or_else(|e| panic!("pipeline aborted under the strict guard: {e}"))
}

/// [`run_pipeline`], surfacing [`GuardMode::Strict`] aborts as an error
/// instead of a panic. Every scalar pass and the vectorizer run as guarded
/// transactions under the pass manager (see `lslp::pm` and `lslp::guard`).
///
/// # Errors
///
/// In strict mode, returns the first guard incident as a [`GuardError`];
/// the function is left rolled back to its state before the failing
/// transaction.
pub fn try_run_pipeline(
    f: &mut Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
) -> Result<PipelineReport, GuardError> {
    run_with(f, cfg, tm, &mut AnalysisManager::new(), Schedule::Full)
}

/// Run `schedule` over `f` under one pass manager, pulling analyses from
/// `am` so the cache (and its counters) can outlive one run.
///
/// # Errors
///
/// In strict mode, returns the first guard incident as a [`GuardError`].
pub(crate) fn run_with(
    f: &mut Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
    am: &mut AnalysisManager,
    schedule: Schedule,
) -> Result<PipelineReport, GuardError> {
    let start = Instant::now();
    let mut report = PipelineReport::default();
    let stats = Statistics::new();
    let cx = PassContext { cfg, tm, stats: &stats };
    let mut pm = PassManager::new(cfg.guard_policy());
    let outcome = run_schedule(f, &cx, &mut pm, am, &mut report, start, schedule);
    // Observability is filled in even when a strict-mode abort unwinds the
    // schedule, so callers can still see how far the run got.
    report.incidents = pm.take_incidents();
    report.pass_timings = pm.take_timings();
    report.stats = stats;
    report.analysis_cache = am.cache_stats();
    report.analysis_time = am.analysis_time();
    report.total_time = start.elapsed();
    if cfg.guard == GuardMode::Off {
        debug_assert!(lslp_ir::verify_function(f).is_ok());
    }
    outcome?;
    Ok(report)
}

/// The pass schedule proper: scalar rounds (full schedule only),
/// vectorizer, final clean-up.
fn run_schedule(
    f: &mut Function,
    cx: &PassContext,
    pm: &mut PassManager,
    am: &mut AnalysisManager,
    report: &mut PipelineReport,
    start: Instant,
    schedule: Schedule,
) -> Result<(), GuardError> {
    if schedule == Schedule::Full {
        // Control-flow lowering first: if-conversion turns branch diamonds
        // into selects (including inside loop bodies), then unrolling peels
        // counted loops — after these two, any function the frontend could
        // produce is straight-line again and the scalar pipeline and
        // vectorizer apply.
        report.if_converted = pm.run_pass(&mut IfConvertPass, f, am, cx)?;
        report.unrolled = pm.run_pass(&mut UnrollLoopsPass, f, am, cx)?;
        for _ in 0..SCALAR_ROUNDS {
            report.simplified += pm.run_pass(&mut SimplifyPass, f, am, cx)?;
            report.folded += pm.run_pass(&mut FoldPass, f, am, cx)?;
            report.cse_merged += pm.run_pass(&mut CsePass, f, am, cx)?;
            report.dce_removed += pm.run_pass(&mut DcePass, f, am, cx)?;
        }
        report.scalar_time = start.elapsed();
    }
    let mut vp = VectorizePass::default();
    pm.run_pass(&mut vp, f, am, cx)?;
    report.vectorize = vp.take_report()?;
    // The vectorizer runs its own DCE; the full schedule adds a final
    // clean-up round for the dead address math vectorization exposes.
    report.dce_removed += report.vectorize.dce_removed;
    if schedule == Schedule::Full {
        report.dce_removed += pm.run_pass(&mut DcePass, f, am, cx)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    /// A function with fodder for every scalar pass plus a vectorizable
    /// store group.
    fn busy_function() -> Function {
        let mut f = Function::new("busy");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let zero = b.func().const_i64(0);
            let one = b.func().const_i64(1);
            let idx0 = b.add(i, off);
            let idx = b.add(idx0, zero); // simplifies away
            let gb = b.gep(pb, idx, 8);
            let l = b.load(Type::I64, gb);
            let l2 = {
                // Duplicate load for CSE.
                let gb2 = b.gep(pb, idx, 8);
                b.load(Type::I64, gb2)
            };
            let two = b.add(one, one); // folds to 2
            let v = b.mul(l, two);
            let w = b.add(v, l2);
            let dead = b.xor(w, w); // simplifies to 0, then dies
            let _ = dead;
            let ga = b.gep(pa, idx, 8);
            b.store(w, ga);
        }
        f
    }

    #[test]
    fn pipeline_exercises_every_pass() {
        let mut f = busy_function();
        let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert!(report.simplified > 0, "simplify must fire");
        assert!(report.folded > 0, "fold must fire");
        assert!(report.cse_merged > 0, "cse must fire");
        assert!(report.dce_removed > 0, "dce must fire");
        assert_eq!(report.vectorize.trees_vectorized, 1, "{}", lslp_ir::print_function(&f));
        lslp_ir::verify_function(&f).unwrap();
    }

    #[test]
    fn o3_runs_scalar_passes_only() {
        let mut f = busy_function();
        let report = run_pipeline(&mut f, &VectorizerConfig::o3(), &CostModel::default());
        assert!(report.simplified > 0);
        assert_eq!(report.vectorize.trees_vectorized, 0);
        let text = lslp_ir::print_function(&f);
        assert!(!text.contains('<'), "O3 must stay scalar:\n{text}");
    }

    #[test]
    fn pipeline_preserves_semantics() {
        // Spot check with the interpreter-free comparison: the scalar
        // pipeline must keep the store count and improve instruction count.
        let mut f = busy_function();
        let before = f.body_len();
        run_pipeline(&mut f, &VectorizerConfig::o3(), &CostModel::default());
        let after = f.body_len();
        assert!(after < before, "pipeline must shrink the busy function");
        let stores = f.iter_body().filter(|(_, _, i)| i.op == lslp_ir::Opcode::Store).count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn timings_are_recorded() {
        let mut f = busy_function();
        let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert!(report.total_time >= report.scalar_time);
        assert!(report.total_time.as_nanos() > 0);
    }

    #[test]
    fn per_pass_timings_cover_the_schedule() {
        let mut f = busy_function();
        let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        // if-convert + unroll + 2 rounds × 4 scalar passes + vectorize +
        // final dce.
        assert_eq!(report.pass_timings.len(), SCALAR_ROUNDS * 4 + 4);
        assert_eq!(report.pass_timings[0].pass, "if-convert");
        assert_eq!(report.pass_timings[1].pass, "unroll");
        let names: Vec<_> = report.pass_timings.iter().map(|t| t.pass).collect();
        assert!(names.contains(&"vectorize"));
        assert_eq!(*names.last().unwrap(), "dce");
        let total: Duration = report.pass_timings.iter().map(|t| t.time).sum();
        assert!(total <= report.total_time, "pass times must nest inside the total");
    }

    #[test]
    fn stats_registry_matches_report_counts() {
        let mut f = busy_function();
        let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert_eq!(report.stats.get("simplify", "rewrites"), report.simplified as u64);
        assert_eq!(report.stats.get("fold", "constants-folded"), report.folded as u64);
        assert_eq!(report.stats.get("cse", "insts-merged"), report.cse_merged as u64);
        assert_eq!(
            report.stats.get("vectorize", "trees-vectorized"),
            report.vectorize.trees_vectorized as u64
        );
    }

    #[test]
    fn analysis_cache_is_exercised() {
        let mut f = busy_function();
        let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        let cs = report.analysis_cache;
        assert!(cs.misses > 0, "analyses must be computed at least once");
        assert!(cs.hits > 0, "passes must share cached analyses: {cs:?}");
        assert!(report.analysis_time <= report.total_time);
    }

    #[test]
    fn vectorize_only_reports_observability() {
        let mut f = busy_function();
        let report = run_with(
            &mut f,
            &VectorizerConfig::lslp(),
            &CostModel::default(),
            &mut AnalysisManager::new(),
            Schedule::VectorizeOnly,
        )
        .unwrap();
        assert_eq!(report.simplified, 0, "no scalar passes in vectorize-only mode");
        assert!(report.vectorize.trees_vectorized > 0 || !report.vectorize.attempts.is_empty());
        assert_eq!(report.pass_timings.len(), 1);
        assert_eq!(report.pass_timings[0].pass, "vectorize");
        assert!(report.analysis_cache.misses > 0);
    }
}
