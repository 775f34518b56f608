//! The pass manager: a `Pass` trait, guarded execution, cached analyses.
//!
//! LLVM-new-PM in miniature. Every transform — the scalar clean-up passes
//! and the vectorizer — implements [`Pass`] and runs under a
//! [`PassManager`] that supplies three cross-cutting services so the
//! passes themselves stay pure transforms:
//!
//! * **transactions** — each pass runs inside one
//!   [`crate::guard::run_guarded`] transaction (delta-log rollback point,
//!   panic isolation, post-verify, rollback) instead of every call site
//!   wrapping itself;
//! * **cached analyses** — passes pull [`AddrInfo`](lslp_analysis::AddrInfo),
//!   position/use maps, and memory-dependence summaries from the
//!   [`AnalysisManager`], keyed by the function's mutation epoch; after a
//!   pass the manager catches its entries up from the delta log, or
//!   recomputes them when the log cannot be replayed;
//! * **observability** — per-pass wall-clock timers ([`PassTiming`]) and
//!   named counters ([`Statistics`]) accumulate per run and surface
//!   through [`crate::PipelineReport`] and `lslpc --print-pass-times
//!   --stats`.

use std::time::{Duration, Instant};

use lslp_analysis::AnalysisManager;
use lslp_ir::Function;
use lslp_target::CostModel;

use crate::config::VectorizerConfig;
use crate::guard::{self, GuardError, GuardPolicy, Incident};
use crate::pass::VectorizeReport;
use crate::stats::Statistics;

/// Everything a pass may read but not own: configuration, the target cost
/// model, and the shared statistics registry.
pub struct PassContext<'a> {
    /// The vectorizer/pipeline configuration.
    pub cfg: &'a VectorizerConfig,
    /// The target cost model.
    pub tm: &'a CostModel,
    /// Shared counter registry; passes report through [`Statistics::add`].
    pub stats: &'a Statistics,
}

/// A function transform that runs under the [`PassManager`].
pub trait Pass {
    /// Stable pass name used in timings, statistics, and incidents.
    fn name(&self) -> &'static str;

    /// Transform `f`, pulling analyses from `am` and reporting counters
    /// through `cx.stats`. Returns the number of rewrites (pass-specific
    /// unit: instructions simplified, merged, removed, trees vectorized,
    /// …).
    fn run(&mut self, f: &mut Function, am: &mut AnalysisManager, cx: &PassContext) -> usize;

    /// Whether the pass runs its own internal transactions (the vectorizer
    /// guards per seed). Self-guarded passes are not wrapped in an outer
    /// guarded transaction — that would re-verify what each inner commit
    /// already verified.
    fn self_guarded(&self) -> bool {
        false
    }
}

/// Wall-clock record of one pass execution.
#[derive(Clone, Debug)]
pub struct PassTiming {
    /// The pass name.
    pub pass: &'static str,
    /// Wall-clock time of the run (including guard overhead).
    pub time: Duration,
    /// Rewrites the run reported (0 when rolled back).
    pub rewrites: usize,
}

/// Runs passes as guarded transactions and records per-pass timings and
/// incidents.
pub struct PassManager {
    policy: GuardPolicy,
    timings: Vec<PassTiming>,
    incidents: Vec<Incident>,
}

impl PassManager {
    /// A pass manager with the given guard policy.
    pub fn new(policy: GuardPolicy) -> PassManager {
        PassManager { policy, timings: Vec::new(), incidents: Vec::new() }
    }

    /// Timings of every pass run so far, in execution order.
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Drain the recorded timings.
    pub fn take_timings(&mut self) -> Vec<PassTiming> {
        std::mem::take(&mut self.timings)
    }

    /// Drain the incidents recorded for rolled-back passes.
    pub fn take_incidents(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.incidents)
    }

    /// Run one pass over `f` as a guarded transaction. `am` stays
    /// consistent with the outcome through the function's epoch: a commit
    /// moves it (the commit check has already caught the entries up from
    /// the delta log, or they are recomputed on the next query), and a
    /// rollback restores the pre-pass epoch, while entries computed
    /// against the abandoned intermediate states can no longer be replayed
    /// and are recomputed.
    ///
    /// Returns the rewrite count (0 when rolled back).
    ///
    /// # Errors
    ///
    /// Under [`crate::GuardMode::Strict`] the first incident aborts with a
    /// [`GuardError`]; in rollback mode incidents are recorded internally
    /// (see [`PassManager::take_incidents`]).
    pub fn run_pass(
        &mut self,
        pass: &mut dyn Pass,
        f: &mut Function,
        am: &mut AnalysisManager,
        cx: &PassContext,
    ) -> Result<usize, GuardError> {
        let name = pass.name();
        let started = Instant::now();
        let outcome = if pass.self_guarded() {
            Ok(Some(pass.run(f, am, cx)))
        } else {
            let pre_epoch = f.epoch();
            guard::run_guarded(f, am, self.policy, name, None, &mut self.incidents, |f, am| {
                let rewrites = pass.run(f, am, cx);
                (rewrites, f.epoch() != pre_epoch)
            })
        };
        let rewrites = outcome.as_ref().map_or(0, |r| r.unwrap_or(0));
        self.timings.push(PassTiming { pass: name, time: started.elapsed(), rewrites });
        outcome.map(|r| r.unwrap_or(0))
    }
}

// ---------------------------------------------------------------------------
// Pass implementations for the pipeline's transforms
// ---------------------------------------------------------------------------

/// If-conversion ([`crate::ifconv`]) as a pass: branch diamonds become
/// `select`s so the straight-line vectorizer can see through them.
#[derive(Default)]
pub struct IfConvertPass;

impl Pass for IfConvertPass {
    fn name(&self) -> &'static str {
        "if-convert"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> usize {
        // Flattening the CFG can rewrite the function even when no diamond
        // converts, so mutation is judged by the epoch, not the count.
        let pre = f.epoch();
        let swap = cx.cfg.sabotage == crate::config::Sabotage::SwapIfArms;
        let n = crate::ifconv::run_with(f, swap);
        cx.stats.add(self.name(), "diamonds-converted", n as u64);
        if f.epoch() == pre {
            0
        } else {
            n.max(1)
        }
    }
}

/// Unroll-and-SLP ([`crate::unroll`]) as a pass: small counted loops are
/// fully unrolled so adjacent-store seeding finds packs across iterations.
#[derive(Default)]
pub struct UnrollLoopsPass;

impl Pass for UnrollLoopsPass {
    fn name(&self) -> &'static str {
        "unroll"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> usize {
        let pre = f.epoch();
        let n = crate::unroll::run(f);
        cx.stats.add(self.name(), "loops-unrolled", n as u64);
        if f.epoch() == pre {
            0
        } else {
            n.max(1)
        }
    }
}

/// Algebraic simplification ([`crate::simplify`]) as a pass.
#[derive(Default)]
pub struct SimplifyPass;

impl Pass for SimplifyPass {
    fn name(&self) -> &'static str {
        "simplify"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> usize {
        let n = crate::simplify::run(f, cx.cfg.fast_math);
        cx.stats.add(self.name(), "rewrites", n as u64);
        n
    }
}

/// Constant folding ([`crate::fold`]) as a pass.
#[derive(Default)]
pub struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> usize {
        let n = crate::fold::run(f);
        cx.stats.add(self.name(), "constants-folded", n as u64);
        n
    }
}

/// Common-subexpression elimination ([`crate::cse`]) as a pass. Pulls the
/// address and memory-dependence analyses from the cache.
#[derive(Default)]
pub struct CsePass;

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&mut self, f: &mut Function, am: &mut AnalysisManager, cx: &PassContext) -> usize {
        let n = crate::cse::run_with(f, am);
        cx.stats.add(self.name(), "insts-merged", n as u64);
        n
    }
}

/// Dead-code elimination ([`crate::dce`]) as a pass.
#[derive(Default)]
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> usize {
        let n = crate::dce::run(f);
        cx.stats.add(self.name(), "insts-removed", n as u64);
        n
    }
}

/// The (L)SLP vectorizer as a pass. Self-guarded: it transacts per seed
/// internally (see `try_vectorize_function_with` in [`crate::pass`]), so the
/// manager only times it and maintains the analysis cache. The detailed
/// [`VectorizeReport`] (and a strict-mode abort, if any) is retrieved with
/// [`VectorizePass::take_report`] after the run.
#[derive(Default)]
pub struct VectorizePass {
    outcome: Option<Result<VectorizeReport, GuardError>>,
}

impl VectorizePass {
    /// The report of the last run (or the strict-mode error that aborted
    /// it). An empty report if the pass never ran.
    ///
    /// # Errors
    ///
    /// Propagates the [`GuardError`] a strict-mode run aborted with.
    pub fn take_report(&mut self) -> Result<VectorizeReport, GuardError> {
        self.outcome.take().unwrap_or_else(|| Ok(VectorizeReport::default()))
    }
}

impl Pass for VectorizePass {
    fn name(&self) -> &'static str {
        "vectorize"
    }

    fn self_guarded(&self) -> bool {
        true
    }

    fn run(&mut self, f: &mut Function, am: &mut AnalysisManager, cx: &PassContext) -> usize {
        let r = crate::pass::try_vectorize_function_with(f, cx.cfg, cx.tm, am);
        let rewrites = match &r {
            Ok(rep) => {
                cx.stats.add(self.name(), "seeds-attempted", rep.attempts.len() as u64);
                cx.stats.add(self.name(), "trees-vectorized", rep.trees_vectorized as u64);
                cx.stats.add(self.name(), "vector-insts", rep.stats.vector_insts as u64);
                cx.stats.add(self.name(), "extracts", rep.stats.extracts as u64);
                cx.stats.add(self.name(), "stores-deleted", rep.stats.stores_deleted as u64);
                cx.stats.add(self.name(), "insts-dce-removed", rep.dce_removed as u64);
                rep.trees_vectorized
            }
            Err(_) => 0,
        };
        self.outcome = Some(r);
        rewrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardMode;
    use lslp_ir::{FunctionBuilder, Type};

    fn redundant_kernel() -> Function {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let zero = b.func().const_i64(0);
        let g = b.gep(pa, i, 8);
        let l = b.load(Type::I64, g);
        let x = b.add(l, zero); // simplifies away
        b.store(x, g);
        f
    }

    #[test]
    fn manager_times_and_counts_passes() {
        let mut f = redundant_kernel();
        let mut am = AnalysisManager::new();
        let cfg = VectorizerConfig::o3();
        let tm = CostModel::default();
        let stats = Statistics::new();
        let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
        let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Rollback));
        let n = pm.run_pass(&mut SimplifyPass, &mut f, &mut am, &cx).unwrap();
        assert!(n > 0, "simplify must fire on x + 0");
        assert_eq!(stats.get("simplify", "rewrites"), n as u64);
        assert_eq!(pm.timings().len(), 1);
        assert_eq!(pm.timings()[0].pass, "simplify");
        assert_eq!(pm.timings()[0].rewrites, n);
        assert!(pm.take_incidents().is_empty());
    }

    #[test]
    fn clean_pass_run_keeps_cache_warm() {
        let mut f = redundant_kernel();
        let mut am = AnalysisManager::new();
        let cfg = VectorizerConfig::o3();
        let tm = CostModel::default();
        let stats = Statistics::new();
        let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
        let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Rollback));
        // Warm the cache, then run a pass that won't change anything
        // (simplify already ran), and make sure the entries survive.
        pm.run_pass(&mut SimplifyPass, &mut f, &mut am, &cx).unwrap();
        let _ = am.addr_info(&f);
        let misses = am.cache_stats().misses;
        let n = pm.run_pass(&mut SimplifyPass, &mut f, &mut am, &cx).unwrap();
        assert_eq!(n, 0, "second simplify must be a no-op");
        let _ = am.addr_info(&f);
        assert_eq!(am.cache_stats().misses, misses, "no-op pass must not cold the cache");
        assert!(am.cache_stats().hits > 0);
    }

    #[test]
    fn rolled_back_pass_clears_cache_and_records() {
        struct PanicPass;
        impl Pass for PanicPass {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn run(
                &mut self,
                f: &mut Function,
                am: &mut AnalysisManager,
                _cx: &PassContext,
            ) -> usize {
                f.add_param("junk", Type::I64);
                let _ = am.addr_info(f); // cache an intermediate-state analysis
                panic!("injected");
            }
        }
        let mut f = redundant_kernel();
        let before = lslp_ir::print_function(&f);
        let mut am = AnalysisManager::new();
        let cfg = VectorizerConfig::o3();
        let tm = CostModel::default();
        let stats = Statistics::new();
        let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
        let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Rollback));
        let n = pm.run_pass(&mut PanicPass, &mut f, &mut am, &cx).unwrap();
        assert_eq!(n, 0);
        assert_eq!(lslp_ir::print_function(&f), before, "rollback must restore");
        let incidents = pm.take_incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].pass, "panicky");
        // The intermediate-state analysis must not leak into the restored
        // function's cache: the next query recomputes.
        let misses = am.cache_stats().misses;
        let _ = am.addr_info(&f);
        assert_eq!(am.cache_stats().misses, misses + 1, "stale entry must be dropped");
    }

    #[test]
    fn strict_mode_aborts_run_pass() {
        struct PanicPass;
        impl Pass for PanicPass {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn run(
                &mut self,
                _f: &mut Function,
                _am: &mut AnalysisManager,
                _cx: &PassContext,
            ) -> usize {
                panic!("injected");
            }
        }
        let mut f = redundant_kernel();
        let mut am = AnalysisManager::new();
        let cfg = VectorizerConfig::o3();
        let tm = CostModel::default();
        let stats = Statistics::new();
        let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
        let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Strict));
        let err = pm.run_pass(&mut PanicPass, &mut f, &mut am, &cx).unwrap_err();
        assert_eq!(err.0.pass, "panicky");
        assert_eq!(pm.timings().len(), 1, "aborted runs are still timed");
    }
}
