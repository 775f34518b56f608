//! The vectorization pass driver (paper Figure 1).
//!
//! Finds seed store chains and hands pack selection to the configured
//! [`crate::packing::Strategy`] (greedy per-lane-cheapest by default, or
//! the global DP/branch-and-bound planner), then runs reduction
//! vectorization, sweeps dead scalars, and verifies against the scalar
//! fallback anchor.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lslp_analysis::AnalysisManager;
use lslp_ir::{Function, InstAttr, Opcode, Type, ValueId};
use lslp_target::CostModel;

use crate::codegen::CodegenStats;
use crate::config::{PackingStrategy, Sabotage, VectorizerConfig};
use crate::dce;
use crate::guard::{self, GuardError, GuardMode, Incident, IncidentKind};
use crate::packing::{strategy_for, PackCx};

/// One attempted seed group.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Human-readable seed description, e.g. `A[+0..+2)`.
    pub seed: String,
    /// Vector factor (lanes).
    pub vf: usize,
    /// Total tree cost (`VectorCost − ScalarCost`; negative is profitable).
    pub cost: i64,
    /// Number of nodes in the graph.
    pub nodes: usize,
    /// Number of gather (non-vectorizable) nodes.
    pub gathers: usize,
    /// Whether vector code was generated.
    pub vectorized: bool,
    /// Which packing strategy costed (and, when `vectorized`, committed)
    /// this candidate.
    pub strategy: PackingStrategy,
}

/// The result of running the pass over one function.
#[derive(Clone, Debug, Default)]
pub struct VectorizeReport {
    /// Every seed group attempted, in order.
    pub attempts: Vec<Attempt>,
    /// Sum of the costs of all *applied* graphs — the "static cost" the
    /// paper plots in Figures 10–11 (lower/more negative is better).
    pub applied_cost: i64,
    /// Number of seed groups vectorized.
    pub trees_vectorized: usize,
    /// Aggregated code generation statistics.
    pub stats: CodegenStats,
    /// Instructions removed by the final DCE sweep.
    pub dce_removed: usize,
    /// Histogram of gather reasons over every costed attempt (keyed by the
    /// [`crate::GatherReason`] display name) — a cheap behavioral
    /// fingerprint of *why* bundles failed to vectorize, used by the
    /// coverage-guided fuzzer as a feedback signal.
    pub gather_reasons: BTreeMap<String, u64>,
    /// Reduction-seed attempts (only when
    /// [`VectorizerConfig::enable_reductions`] is set).
    pub reductions: Vec<crate::reduce::ReductionAttempt>,
    /// Guard incidents recorded while the pass ran: rolled-back seed
    /// attempts, skipped unsupported seeds, exhausted fuel budgets (empty
    /// under [`GuardMode::Off`], and in strict mode the first incident
    /// aborts the pass instead).
    pub incidents: Vec<Incident>,
    /// Wall-clock time spent in the pass (compilation-time metric of
    /// Figure 14).
    pub elapsed: Duration,
}

impl VectorizeReport {
    pub(crate) fn absorb(&mut self, s: &CodegenStats) {
        self.stats.vector_insts += s.vector_insts;
        self.stats.extracts += s.extracts;
        self.stats.stores_deleted += s.stores_deleted;
    }
}

/// Run the (L)SLP pass over one straight-line function.
///
/// ```
/// use lslp::{vectorize_function, VectorizerConfig};
/// use lslp_ir::{Function, FunctionBuilder, Type};
/// use lslp_target::CostModel;
///
/// // A[i+o] = B[i+o] + C[i+o] for o in 0..2
/// let mut f = Function::new("axpy");
/// let pa = f.add_param("A", Type::PTR);
/// let pb = f.add_param("B", Type::PTR);
/// let pc = f.add_param("C", Type::PTR);
/// let i = f.add_param("i", Type::I64);
/// for o in 0..2 {
///     let mut b = FunctionBuilder::new(&mut f);
///     let off = b.func().const_i64(o);
///     let idx = b.add(i, off);
///     let gb = b.gep(pb, idx, 8);
///     let lb = b.load(Type::I64, gb);
///     let gc = b.gep(pc, idx, 8);
///     let lc = b.load(Type::I64, gc);
///     let s = b.add(lb, lc);
///     let ga = b.gep(pa, idx, 8);
///     b.store(s, ga);
/// }
/// let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
/// assert_eq!(report.trees_vectorized, 1);
/// assert!(report.applied_cost < 0);
/// ```
pub fn vectorize_function(
    f: &mut Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
) -> VectorizeReport {
    try_vectorize_function(f, cfg, tm)
        .unwrap_or_else(|e| panic!("vectorizer aborted under the strict guard: {e}"))
}

/// [`vectorize_function`], surfacing [`GuardMode::Strict`] aborts as an
/// error instead of a panic. Under the other guard modes this never fails.
///
/// # Errors
///
/// In strict mode, returns the first guard incident (panic, verification
/// failure, or oracle mismatch) as a [`GuardError`]; the function is left
/// rolled back to its state before the failing transaction.
pub fn try_vectorize_function(
    f: &mut Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
) -> Result<VectorizeReport, GuardError> {
    try_vectorize_function_with(f, cfg, tm, &mut AnalysisManager::new())
}

/// [`try_vectorize_function`], pulling analyses from `am`'s epoch-keyed
/// cache: each restart of the seed loop re-queries the manager, which
/// recomputes only what a committed transformation invalidated (a
/// rolled-back attempt restores the function's epoch with it, so the cache
/// stays warm across failed attempts).
///
/// # Errors
///
/// See [`try_vectorize_function`].
pub(crate) fn try_vectorize_function_with(
    f: &mut Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
    am: &mut AnalysisManager,
) -> Result<VectorizeReport, GuardError> {
    let start = Instant::now();
    let deadline = cfg.time_budget_ms.map(|ms| start + Duration::from_millis(ms));
    let mut report = VectorizeReport::default();
    if !cfg.enabled {
        report.elapsed = start.elapsed();
        return Ok(report);
    }
    // Scalar fallback anchor: if the function is somehow left broken at
    // the end despite the per-attempt checks, restore the scalar original.
    // A whole-pass transaction; the per-seed transactions nest inside it.
    let anchor = (cfg.guard != GuardMode::Off).then(|| f.begin_txn());

    // Pack selection: everything between seeding and the reduction pass
    // lives behind the `PackingStrategy` seam (see `crate::packing`).
    let mut fuel_spent = false;
    {
        let mut cx = PackCx {
            f: &mut *f,
            cfg,
            tm,
            am,
            report: &mut report,
            deadline,
            fuel_spent: &mut fuel_spent,
        };
        strategy_for(cfg.packing).run(&mut cx)?;
    }
    if cfg.enable_reductions {
        let reds = guard::run_guarded(
            f,
            am,
            cfg.guard_policy(),
            "reductions",
            None,
            &mut report.incidents,
            |f, am| {
                let reds = crate::reduce::run_with(f, cfg, tm, am);
                let mutated = reds.iter().any(|r| r.applied);
                (reds, mutated)
            },
        )?;
        report.reductions = reds.unwrap_or_default();
        for r in &report.reductions {
            if r.applied {
                report.applied_cost += r.cost;
                report.trees_vectorized += 1;
            }
        }
    }
    report.dce_removed = if cfg.sabotage == Sabotage::SkipFinalDce {
        // Fault injection: leave the dead scalar remainder in place, which
        // the pipeline-idempotence oracle must flag (a clean recompile
        // removes what this compile left behind).
        0
    } else {
        guard::run_guarded(
            f,
            am,
            cfg.guard_policy(),
            "dce",
            None,
            &mut report.incidents,
            |f, _| {
                let n = dce::run(f);
                (n, n > 0)
            },
        )?
        .unwrap_or(0)
    };
    // Final checkpoint: every committed transaction was verified above, so
    // this should never fire — but if it does, fall back to the scalar
    // original rather than emit a broken function.
    match anchor {
        None => debug_assert!(
            lslp_ir::verify_function(f).is_ok(),
            "vectorized function failed verification: {:?}",
            lslp_ir::verify_function(f)
        ),
        Some(mark) => {
            if let Err(e) = lslp_ir::verify_function(f) {
                f.rollback_txn(mark);
                let incident = Incident {
                    pass: "vectorize".into(),
                    seed: None,
                    kind: IncidentKind::VerifyError,
                    detail: format!("final checkpoint failed, scalar fallback taken: {e}"),
                };
                if cfg.guard == GuardMode::Strict {
                    return Err(GuardError(incident));
                }
                let mut incidents = report.incidents;
                incidents.push(incident);
                let elapsed = start.elapsed();
                return Ok(VectorizeReport { incidents, elapsed, ..VectorizeReport::default() });
            }
            f.commit_txn(mark);
        }
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

/// [`Sabotage::SwapShuffleMask`]: plant a lane-swapping shuffle
/// (`mask = [1, 0, 2, 3, ...]`) in front of the first vector store not
/// already sabotaged. The result still verifies (the shuffle is
/// type-correct) but silently permutes the first two stored lanes —
/// exactly the class of wrong-code bug the execution oracles exist to
/// catch. Test-only.
pub(crate) fn sabotage_swap_mask(f: &mut Function) {
    let already_swapped = |f: &Function, val: ValueId| {
        f.inst(val).is_some_and(|i| {
            i.op == Opcode::ShuffleVector
                && matches!(&i.attr, InstAttr::Mask(m) if m.len() >= 2 && m[0] == 1 && m[1] == 0)
        })
    };
    let target = f.iter_body().find_map(|(pos, v, inst)| {
        if inst.op != Opcode::Store {
            return None;
        }
        let val = inst.args[0];
        match f.ty(val) {
            Type::Vector(elem, lanes) if lanes >= 2 && !already_swapped(f, val) => {
                Some((pos, v, val, elem, lanes))
            }
            _ => None,
        }
    });
    if let Some((pos, store, val, elem, lanes)) = target {
        let mut mask: Vec<u32> = (0..lanes).collect();
        mask.swap(0, 1);
        let ty = Type::Vector(elem, lanes);
        let shuf = f.insert(pos, Opcode::ShuffleVector, ty, vec![val, val], InstAttr::Mask(mask));
        if let Some(inst) = f.inst_mut(store) {
            inst.args[0] = shuf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    fn axpy_kernel(lanes: i64) -> Function {
        let mut f = Function::new("axpy");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let i = f.add_param("i", Type::I64);
        for o in 0..lanes {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let gc = b.gep(pc, idx, 8);
            let lc = b.load(Type::I64, gc);
            let s = b.add(lb, lc);
            let ga = b.gep(pa, idx, 8);
            b.store(s, ga);
        }
        f
    }

    #[test]
    fn o3_does_nothing() {
        let mut f = axpy_kernel(2);
        let before = lslp_ir::print_function(&f);
        let report = vectorize_function(&mut f, &VectorizerConfig::o3(), &CostModel::default());
        assert_eq!(report.trees_vectorized, 0);
        assert!(report.attempts.is_empty());
        assert_eq!(lslp_ir::print_function(&f), before);
    }

    #[test]
    fn two_lane_kernel_vectorizes() {
        let mut f = axpy_kernel(2);
        let report = vectorize_function(&mut f, &VectorizerConfig::slp(), &CostModel::default());
        assert_eq!(report.trees_vectorized, 1);
        assert_eq!(report.applied_cost, -4);
        assert!(report.dce_removed > 0);
        lslp_ir::verify_function(&f).unwrap();
    }

    #[test]
    fn four_lane_kernel_uses_vf4() {
        let mut f = axpy_kernel(4);
        let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert_eq!(report.trees_vectorized, 1);
        let applied: Vec<_> = report.attempts.iter().filter(|a| a.vectorized).collect();
        assert_eq!(applied[0].vf, 4);
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("<4 x i64>"), "{text}");
    }

    #[test]
    fn six_lanes_vectorize_as_four_plus_two() {
        let mut f = axpy_kernel(6);
        let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert_eq!(report.trees_vectorized, 2);
        let vfs: Vec<usize> =
            report.attempts.iter().filter(|a| a.vectorized).map(|a| a.vf).collect();
        assert_eq!(vfs, vec![4, 2]);
    }

    #[test]
    fn max_vf_config_caps_lanes() {
        let mut f = axpy_kernel(4);
        let cfg = VectorizerConfig { max_vf: 2, ..VectorizerConfig::lslp() };
        let report = vectorize_function(&mut f, &cfg, &CostModel::default());
        assert_eq!(report.trees_vectorized, 2);
        assert!(report.attempts.iter().all(|a| a.vf <= 2));
    }

    #[test]
    fn seed_descriptions_are_readable() {
        let mut f = axpy_kernel(2);
        let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert_eq!(report.attempts[0].seed, "A[+0..+16)");
    }

    #[test]
    fn unprofitable_seed_is_reported_not_applied() {
        // Stores of two unrelated argument values: gathering costs as much
        // as the store saves, so the tree is not profitable.
        let mut f = Function::new("u");
        let pa = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let i = f.add_param("i", Type::I64);
        {
            let mut b = FunctionBuilder::new(&mut f);
            let g = b.gep(pa, i, 8);
            b.store(x, g);
        }
        {
            let mut b = FunctionBuilder::new(&mut f);
            let one = b.func().const_i64(1);
            let idx = b.add(i, one);
            let g = b.gep(pa, idx, 8);
            b.store(y, g);
        }
        let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
        assert_eq!(report.trees_vectorized, 0);
        assert_eq!(report.attempts.len(), 1);
        assert_eq!(report.attempts[0].cost, 1); // store −1 + gather +2
        let text = lslp_ir::print_function(&f);
        assert!(!text.contains('<'), "must stay scalar:\n{text}");
    }
}
