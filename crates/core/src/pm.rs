//! The pass manager: a `Pass` trait, guarded execution, cached analyses.
//!
//! LLVM-new-PM in miniature. Every transform — the scalar clean-up passes
//! and the vectorizer — implements [`Pass`] and runs under a
//! [`PassManager`] that supplies three cross-cutting services so the
//! passes themselves stay pure transforms:
//!
//! * **transactions** — each pass runs inside the
//!   [`crate::guard::GuardInstrumentation`] before/after-pass hooks
//!   (snapshot, panic isolation, post-verify, rollback) instead of every
//!   call site wrapping itself;
//! * **cached analyses** — passes pull [`AddrInfo`](lslp_analysis::AddrInfo),
//!   position/use maps, and memory-dependence summaries from the
//!   [`AnalysisManager`] and declare what they preserve via
//!   [`PreservedAnalyses`]; the manager invalidates the rest, keyed by the
//!   function's mutation epoch;
//! * **observability** — per-pass wall-clock timers ([`PassTiming`]) and
//!   named counters ([`Statistics`]) accumulate per run and surface
//!   through [`crate::PipelineReport`] and `lslpc --print-pass-times
//!   --stats`.

use std::time::{Duration, Instant};

use lslp_analysis::{AnalysisManager, PreservedAnalyses};
use lslp_ir::Function;
use lslp_target::CostModel;

use crate::config::VectorizerConfig;
use crate::guard::{GuardError, GuardInstrumentation, GuardMode, GuardPolicy, Incident};
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

/// What a pass run reports back: how much it rewrote and which analyses
/// survived it.
#[derive(Clone, Debug)]
pub struct PassResult {
    /// Number of rewrites (pass-specific unit: instructions simplified,
    /// merged, removed, trees vectorized, …).
    pub rewrites: usize,
    /// Which cached analyses are still valid for the transformed function.
    /// Consulted only when the function's epoch actually moved.
    pub preserved: PreservedAnalyses,
}

impl PassResult {
    /// The pass changed nothing: every analysis survives.
    pub fn unchanged() -> PassResult {
        PassResult { rewrites: 0, preserved: PreservedAnalyses::all() }
    }

    /// The pass rewrote `rewrites` things and preserves nothing.
    pub fn mutated(rewrites: usize) -> PassResult {
        PassResult { rewrites, preserved: PreservedAnalyses::none() }
    }

    /// Convention used by the counting passes: a zero count means the
    /// function was untouched.
    pub fn from_count(rewrites: usize) -> PassResult {
        if rewrites == 0 {
            PassResult::unchanged()
        } else {
            PassResult::mutated(rewrites)
        }
    }
}

/// A function transform that runs under the [`PassManager`].
pub trait Pass {
    /// Stable pass name used in timings, statistics, and incidents.
    fn name(&self) -> &'static str;

    /// Transform `f`, pulling analyses from `am` and reporting counters
    /// through `cx.stats`.
    fn run(&mut self, f: &mut Function, am: &mut AnalysisManager, cx: &PassContext) -> PassResult;

    /// Whether the pass runs its own internal transactions (the vectorizer
    /// guards per seed). Self-guarded passes are not wrapped in an outer
    /// snapshot/verify transaction — that would double the snapshot cost
    /// and re-verify what each inner commit already verified.
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
    guard: GuardInstrumentation,
    timings: Vec<PassTiming>,
    incidents: Vec<Incident>,
}

impl PassManager {
    /// A pass manager with the given guard policy.
    pub fn new(policy: GuardPolicy) -> PassManager {
        PassManager {
            guard: GuardInstrumentation::new(policy),
            timings: Vec::new(),
            incidents: Vec::new(),
        }
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

    /// Run one pass over `f` as a guarded transaction and keep `am`
    /// consistent with the outcome:
    ///
    /// * commit, function changed — the analyses the pass preserved are
    ///   re-keyed to the new epoch, the rest are dropped;
    /// * commit, function untouched — the cache is left warm;
    /// * rollback — the function's epoch is restored with it (snapshots
    ///   carry their epoch), but analyses computed against the abandoned
    ///   intermediate states must go: the cache is cleared.
    ///
    /// Returns the rewrite count (0 when rolled back).
    ///
    /// # Errors
    ///
    /// Under [`GuardMode::Strict`] the first incident aborts with a
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
        let pre_epoch = f.epoch();
        let outcome = if pass.self_guarded() {
            Ok(pass.run(f, am, cx))
        } else {
            self.guard.transact(name, None, f, |f| {
                let r = pass.run(f, am, cx);
                let mutated = f.epoch() != pre_epoch;
                (r, mutated)
            })
        };
        let result = match outcome {
            Ok(r) => Some(r),
            Err(incident) => {
                am.invalidate_all();
                if self.guard.mode() == GuardMode::Strict {
                    self.timings.push(PassTiming {
                        pass: name,
                        time: started.elapsed(),
                        rewrites: 0,
                    });
                    return Err(GuardError(incident));
                }
                self.incidents.push(incident);
                None
            }
        };
        let rewrites = result.as_ref().map_or(0, |r| r.rewrites);
        if let Some(r) = &result {
            if f.epoch() != pre_epoch {
                am.mark_preserved(f, &r.preserved);
            }
        }
        self.timings.push(PassTiming { pass: name, time: started.elapsed(), rewrites });
        Ok(rewrites)
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

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        // Flattening the CFG can rewrite the function even when no diamond
        // converts, so mutation is judged by the epoch, not the count.
        let pre = f.epoch();
        let swap = cx.cfg.sabotage == crate::config::Sabotage::SwapIfArms;
        let n = crate::ifconv::run_with(f, swap);
        cx.stats.add(self.name(), "diamonds-converted", n as u64);
        if f.epoch() == pre {
            PassResult::unchanged()
        } else {
            PassResult::mutated(n.max(1))
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

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        let pre = f.epoch();
        let n = crate::unroll::run(f);
        cx.stats.add(self.name(), "loops-unrolled", n as u64);
        if f.epoch() == pre {
            PassResult::unchanged()
        } else {
            PassResult::mutated(n.max(1))
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

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        let n = crate::simplify::run(f, cx.cfg.fast_math);
        cx.stats.add(self.name(), "rewrites", n as u64);
        PassResult::from_count(n)
    }
}

/// Constant folding ([`crate::fold`]) as a pass.
#[derive(Default)]
pub struct FoldPass;

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        let n = crate::fold::run(f);
        cx.stats.add(self.name(), "constants-folded", n as u64);
        PassResult::from_count(n)
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

    fn run(&mut self, f: &mut Function, am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        let n = crate::cse::run_with(f, am);
        cx.stats.add(self.name(), "insts-merged", n as u64);
        PassResult::from_count(n)
    }
}

/// Dead-code elimination ([`crate::dce`]) as a pass.
#[derive(Default)]
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&mut self, f: &mut Function, _am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        let n = crate::dce::run(f);
        cx.stats.add(self.name(), "insts-removed", n as u64);
        PassResult::from_count(n)
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

    fn run(&mut self, f: &mut Function, am: &mut AnalysisManager, cx: &PassContext) -> PassResult {
        let r = crate::pass::try_vectorize_function_with(f, cx.cfg, cx.tm, am);
        let result = match &r {
            Ok(rep) => {
                cx.stats.add(self.name(), "seeds-attempted", rep.attempts.len() as u64);
                cx.stats.add(self.name(), "trees-vectorized", rep.trees_vectorized as u64);
                cx.stats.add(self.name(), "vector-insts", rep.stats.vector_insts as u64);
                cx.stats.add(self.name(), "extracts", rep.stats.extracts as u64);
                cx.stats.add(self.name(), "stores-deleted", rep.stats.stores_deleted as u64);
                cx.stats.add(self.name(), "insts-dce-removed", rep.dce_removed as u64);
                PassResult { rewrites: rep.trees_vectorized, preserved: PreservedAnalyses::none() }
            }
            Err(_) => PassResult { rewrites: 0, preserved: PreservedAnalyses::none() },
        };
        self.outcome = Some(r);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_analysis::AnalysisKind;
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
            ) -> PassResult {
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
            ) -> PassResult {
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

    #[test]
    fn preserving_pass_keeps_declared_analyses() {
        /// Renames a value: mutates the function but structurally preserves
        /// positions/uses/addresses.
        struct RenamePass;
        impl Pass for RenamePass {
            fn name(&self) -> &'static str {
                "rename"
            }
            fn run(
                &mut self,
                f: &mut Function,
                _am: &mut AnalysisManager,
                _cx: &PassContext,
            ) -> PassResult {
                let v = f.params()[0];
                f.set_value_name(v, "renamed");
                PassResult {
                    rewrites: 1,
                    preserved: PreservedAnalyses::none()
                        .preserve(AnalysisKind::Addr)
                        .preserve(AnalysisKind::Positions),
                }
            }
        }
        let mut f = redundant_kernel();
        let mut am = AnalysisManager::new();
        let _ = am.addr_info(&f);
        let _ = am.positions(&f);
        let _ = am.use_map(&f);
        let cfg = VectorizerConfig::o3();
        let tm = CostModel::default();
        let stats = Statistics::new();
        let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
        let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Rollback));
        pm.run_pass(&mut RenamePass, &mut f, &mut am, &cx).unwrap();
        let misses = am.cache_stats().misses;
        let _ = am.addr_info(&f);
        let _ = am.positions(&f);
        assert_eq!(am.cache_stats().misses, misses, "preserved analyses stay cached");
        let _ = am.use_map(&f);
        assert_eq!(am.cache_stats().misses, misses + 1, "dropped analysis recomputes");
    }
}
