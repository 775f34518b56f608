//! Statement-packing strategies behind the [`Strategy`] seam.
//!
//! Pack selection is three phases, shared by every strategy:
//!
//! 1. **Enumeration** (`cost_bundle`): cost a candidate store bundle at
//!    one VF under the guard, recording an [`Attempt`] row and the gather
//!    reasons exactly once per bundle.
//! 2. **Selection**: order or choose among profitable candidates —
//!    [`GreedyStrategy`] sorts per position by per-lane cost (the paper's
//!    algorithm), [`GlobalStrategy`] picks a whole pack *set* per seed
//!    chain by dynamic programming with a bounded branch-and-bound
//!    refinement over inter-pack permutation penalties
//!    (`TargetSpec::cross_pack_shuffle_cost`).
//! 3. **Commit** (`commit_pack`): regenerate the chosen graph and emit
//!    vector code inside a guard transaction, then restart seeding.
//!
//! [`GlobalStrategy`] additionally holds itself to a **greedy floor**: it
//! trials both its plan and a plain greedy run on the real function (inside
//! rollback transactions), compares the artifacts with [`function_cost`],
//! and keeps the global plan only when it is *strictly* cheaper. Ties and
//! losses re-run greedy deterministically, so `--packing global` is never
//! costlier than `--packing greedy` — the invariant the fuzz
//! packing-quality oracle enforces. Compile fuel is shared with the rest
//! of the pass: when the time budget runs out mid-search, planning stops
//! and the function degrades to (partially vectorized or scalar) greedy
//! output rather than stalling.

use std::rc::Rc;
use std::time::Instant;

use lslp_analysis::{AddrInfo, AnalysisManager, MemLoc, PositionMap};
use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{Function, Opcode, Type, UseMap, ValueId};
use lslp_target::CostModel;

use crate::codegen::{self, CodegenStats};
use crate::config::{PackingStrategy, Sabotage, VectorizerConfig};
use crate::cost::graph_cost;
use crate::dce;
use crate::graph::{GraphBuilder, NodeKind, SlpGraph};
use crate::guard::{self, GuardError, Incident, IncidentKind};
use crate::pass::{Attempt, VectorizeReport};
use crate::seeds::{collect_store_chains, StoreChain};

/// Everything a packing strategy needs to run: the function under
/// transformation, configuration, cost tables, the analysis cache, the
/// report being built, and the shared compile-fuel state. Constructed by
/// the pass driver; the fields are crate-internal.
pub struct PackCx<'a> {
    pub(crate) f: &'a mut Function,
    pub(crate) cfg: &'a VectorizerConfig,
    pub(crate) tm: &'a CostModel,
    pub(crate) am: &'a mut AnalysisManager,
    pub(crate) report: &'a mut VectorizeReport,
    pub(crate) deadline: Option<Instant>,
    pub(crate) fuel_spent: &'a mut bool,
}

/// A pack-selection strategy: how costed candidates become committed
/// vector code. Implemented by [`GreedyStrategy`] and [`GlobalStrategy`];
/// the pass driver dispatches on [`VectorizerConfig::packing`] via
/// [`strategy_for`].
pub trait Strategy {
    /// The knob value this strategy implements.
    fn kind(&self) -> PackingStrategy;

    /// Run pack selection to fixpoint over `cx.f`.
    ///
    /// # Errors
    ///
    /// Propagates the first guard incident under the strict guard mode.
    fn run(&self, cx: &mut PackCx<'_>) -> Result<(), GuardError>;
}

/// Resolve the knob value to its implementation.
pub fn strategy_for(kind: PackingStrategy) -> &'static dyn Strategy {
    match kind {
        PackingStrategy::Greedy => &GreedyStrategy,
        PackingStrategy::Global => &GlobalStrategy,
    }
}

// ---------------------------------------------------------------------------
// Shared phase helpers
// ---------------------------------------------------------------------------

/// Render a seed bundle as `BASE[+lo..+hi)` for reports and incidents.
pub(crate) fn seed_desc(f: &Function, addr: &AddrInfo, bundle: &[ValueId]) -> String {
    loc_desc(f, addr.loc(bundle[0]), bundle.len())
}

/// [`seed_desc`] from the first store's location and the bundle length.
fn loc_desc(f: &Function, loc: Option<&MemLoc>, len: usize) -> String {
    let Some(loc) = loc else {
        return format!("{len} stores");
    };
    let base = f
        .value_name(loc.addr.base)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("%{}", loc.addr.base.raw()));
    let lo = loc.addr.offset.konst;
    let hi = lo + (len as i64) * loc.bytes as i64;
    format!("{base}[+{lo}..+{hi})")
}

/// Largest power of two ≤ `n`.
pub(crate) fn pow2_floor(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Check the wall-clock compile budget; flips `fuel_spent` and records one
/// [`IncidentKind::FuelExhausted`] incident the first time it trips.
pub(crate) fn fuel_check(cx: &mut PackCx<'_>) -> Result<(), GuardError> {
    if *cx.fuel_spent || cx.deadline.is_none_or(|d| Instant::now() <= d) {
        return Ok(());
    }
    *cx.fuel_spent = true;
    guard::record(
        cx.cfg.guard,
        &mut cx.report.incidents,
        Incident {
            pass: "vectorize".into(),
            seed: None,
            kind: IncidentKind::FuelExhausted,
            detail: format!(
                "time budget of {}ms exhausted; remaining seeds skipped",
                cx.cfg.time_budget_ms.unwrap_or(0)
            ),
        },
    )
}

/// Phase 1 (enumeration): cost `bundle` at `vf` inside a guard
/// transaction, recording the [`Attempt`] row, gather-reason histogram,
/// and any truncation incident. Returns the attempt's cost, its row index
/// and the costed graph, or `None` when the evaluation itself rolled back.
fn cost_bundle(
    cx: &mut PackCx<'_>,
    bundle: &[ValueId],
    vf: usize,
    an: &Analyses,
    strategy: PackingStrategy,
) -> Result<Option<(i64, usize, SlpGraph)>, GuardError> {
    let addr = &*an.addr;
    // Rendered lazily: on evaluation inside the attempt (for the report),
    // on rollback by the guard (for the incident) — never both, never for
    // free.
    let desc = |f: &Function| seed_desc(f, addr, bundle);
    let cfg = cx.cfg;
    let tm = cx.tm;
    let eval = guard::run_guarded(
        cx.f,
        cx.am,
        cfg.guard_policy(),
        "vectorize",
        Some(&desc as guard::SeedDesc),
        &mut cx.report.incidents,
        |f, _| {
            let graph = build_graph(f, cfg, tm, an, bundle);
            let cost = graph_cost(f, &graph, tm, &an.uses);
            let gathers = graph.nodes().iter().filter(|n| !n.is_vectorizable()).count();
            let attempt = Attempt {
                seed: seed_desc(f, addr, bundle),
                vf,
                cost: cost.total,
                nodes: graph.nodes().len(),
                gathers,
                vectorized: false,
                strategy,
            };
            let truncated = graph.budget_exhausted();
            // Costing only: nothing is mutated here.
            ((attempt, truncated, graph), false)
        },
    )?;
    let Some((attempt, truncated, graph)) = eval else {
        return Ok(None);
    };
    for n in graph.nodes() {
        if let NodeKind::Gather { reason } = n.kind {
            // A reason's key is allocated once per report, not per node.
            match cx.report.gather_reasons.get_mut(reason.name()) {
                Some(count) => *count += 1,
                None => {
                    cx.report.gather_reasons.insert(reason.name().to_string(), 1);
                }
            }
        }
    }
    if truncated {
        guard::record(
            cx.cfg.guard,
            &mut cx.report.incidents,
            Incident {
                pass: "vectorize".into(),
                seed: Some(attempt.seed.clone()),
                kind: IncidentKind::FuelExhausted,
                detail: format!("graph truncated at {} nodes", cx.cfg.max_graph_nodes),
            },
        )?;
    }
    let cost = attempt.cost;
    let idx = cx.report.attempts.len();
    cx.report.attempts.push(attempt);
    Ok(Some((cost, idx, graph)))
}

/// The analyses the packers cost and commit against, all of one function
/// state.
struct Analyses {
    addr: Rc<AddrInfo>,
    positions: Rc<PositionMap>,
    uses: Rc<UseMap>,
}

impl Analyses {
    fn of(cx: &mut PackCx<'_>) -> Analyses {
        Analyses {
            addr: cx.am.addr_info(cx.f),
            positions: cx.am.positions(cx.f),
            uses: cx.am.use_map(cx.f),
        }
    }
}

/// Phase 3 (commit): generate vector code for the winning graph inside a
/// guard transaction. `graph` is the one costed on the current function
/// state; without it the graph is rebuilt (builds are deterministic).
/// `Some(stats)` on commit, `None` on rollback.
///
/// Takes the analyses by value and drops them before the commit check,
/// which brings the manager's copies up to date in place: a reference
/// still held here would make that update copy them.
fn commit_pack(
    cx: &mut PackCx<'_>,
    bundle: &[ValueId],
    an: Analyses,
    graph: Option<SlpGraph>,
) -> Result<Option<CodegenStats>, GuardError> {
    let loc = an.addr.loc(bundle[0]).cloned();
    let desc = |f: &Function| loc_desc(f, loc.as_ref(), bundle.len());
    let cfg = cx.cfg;
    let tm = cx.tm;
    guard::run_guarded(
        cx.f,
        cx.am,
        cfg.guard_policy(),
        "vectorize",
        Some(&desc as guard::SeedDesc),
        &mut cx.report.incidents,
        move |f, am| {
            let graph = graph.unwrap_or_else(|| build_graph(f, cfg, tm, &an, bundle));
            drop(an);
            let stats = codegen::generate_with(f, &graph, tm, am);
            if cfg.sabotage == Sabotage::SwapShuffleMask {
                crate::pass::sabotage_swap_mask(f);
            }
            (stats, true)
        },
    )
}

/// Build (and throttle, when configured) the graph of `bundle`.
fn build_graph(
    f: &Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
    an: &Analyses,
    bundle: &[ValueId],
) -> SlpGraph {
    let mut graph = GraphBuilder::new(f, cfg, tm, &an.addr, &an.positions, &an.uses).build(bundle);
    if cfg.throttle {
        crate::throttle::throttle(f, &mut graph, tm, &an.uses);
    }
    graph
}

/// Record a committed pack in the report.
fn mark_committed(
    report: &mut VectorizeReport,
    attempt_idx: usize,
    cost: i64,
    stats: &CodegenStats,
) {
    report.attempts[attempt_idx].vectorized = true;
    report.absorb(stats);
    report.applied_cost += cost;
    report.trees_vectorized += 1;
}

/// Record the unsupported-seed incident for a chain whose stored value has
/// no element type; `tried` keeps it once per bundle.
fn record_unsupported(
    cx: &mut PackCx<'_>,
    addr: &AddrInfo,
    chain: &StoreChain,
    tried: &mut HashSet<Vec<ValueId>>,
) -> Result<(), GuardError> {
    let bundle = chain.stores.clone();
    if tried.insert(bundle.clone()) {
        guard::record(
            cx.cfg.guard,
            &mut cx.report.incidents,
            Incident {
                pass: "vectorize".into(),
                seed: Some(seed_desc(cx.f, addr, &bundle)),
                kind: IncidentKind::UnsupportedSeed,
                detail: "stored value has no element type".into(),
            },
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Whole-function static cost
// ---------------------------------------------------------------------------

/// Deterministic static cost of the whole function body under `tm` — the
/// common currency of every packing-quality comparison (the global
/// strategy's greedy floor, the fuzz packing-quality oracle, and the
/// `ext_packing` experiment). Mirrors the per-node accounting of
/// [`crate::cost`] over *emitted* instructions instead of a candidate
/// graph: each instruction is charged its scalar or vector execution cost,
/// with inserts/extracts/shuffles at the target's permutation prices.
/// Lower is better.
pub fn function_cost(f: &Function, tm: &CostModel) -> i64 {
    let mut total = 0i64;
    for (_pos, _v, inst) in f.iter_body() {
        total += match inst.op {
            Opcode::InsertElement => tm.insert_cost,
            Opcode::ExtractElement => tm.extract_cost,
            Opcode::ShuffleVector => tm.shuffle_cost,
            op => {
                // A store is typed void; it moves the width of its operand.
                let ty = if op == Opcode::Store { f.ty(inst.args[0]) } else { inst.ty };
                match ty {
                    Type::Vector(elem, lanes) => tm.vector_cost(op, elem, lanes),
                    _ => tm.scalar_cost(op),
                }
            }
        };
    }
    total
}

// ---------------------------------------------------------------------------
// Greedy: the paper's per-lane-cheapest commit
// ---------------------------------------------------------------------------

/// The paper's greedy bottom-up packer: per chain position, cost every
/// legal VF, commit the cheapest per-lane profitable candidate, restart.
/// This is the default and the byte-identical re-expression of the
/// original pass loop.
pub struct GreedyStrategy;

impl Strategy for GreedyStrategy {
    fn kind(&self) -> PackingStrategy {
        PackingStrategy::Greedy
    }

    fn run(&self, cx: &mut PackCx<'_>) -> Result<(), GuardError> {
        run_greedy(cx)
    }
}

fn run_greedy(cx: &mut PackCx<'_>) -> Result<(), GuardError> {
    let mut tried: HashSet<Vec<ValueId>> = HashSet::default();
    'restart: loop {
        let mut an = Analyses::of(cx);
        let chains = collect_store_chains(cx.f, &an.addr);
        for chain in &chains {
            let Some(elem) = cx.f.ty(cx.f.args_of(chain.stores[0])[0]).elem() else {
                // A store whose stored value has no element type (void):
                // nothing we could widen. Skip the chain and record it.
                record_unsupported(cx, &an.addr, chain, &mut tried)?;
                continue;
            };
            let max_vf = (cx.tm.max_vf(elem) as usize).min(cx.cfg.max_vf as usize);
            let mut i = 0;
            while i < chain.len() {
                fuel_check(cx)?;
                if *cx.fuel_spent {
                    break 'restart;
                }
                let remaining = chain.len() - i;
                // VF exploration: instead of committing to the widest
                // legal factor, cost a candidate graph at *every* legal
                // power-of-two VF (widest first, so the report reads
                // top-down) and commit the cheapest per-lane profitable
                // one — ties go to the wider factor, which keeps the
                // default target's widest-first decisions intact.
                let mut candidates: Vec<(usize, &[ValueId], i64, usize, SlpGraph)> = Vec::new();
                let mut vf = pow2_floor(remaining.min(max_vf));
                while vf >= 2 {
                    // The deadline must also bound the exploration: a wide
                    // chain costed at every factor would otherwise overrun
                    // the budget inside this loop.
                    fuel_check(cx)?;
                    if *cx.fuel_spent {
                        break 'restart;
                    }
                    let bundle = &chain.stores[i..i + vf];
                    if !tried.contains(bundle) {
                        tried.insert(bundle.to_vec());
                        if let Some((cost, idx, graph)) =
                            cost_bundle(cx, bundle, vf, &an, PackingStrategy::Greedy)?
                        {
                            if cost < cx.cfg.cost_threshold {
                                candidates.push((vf, bundle, cost, idx, graph));
                            }
                        }
                        // A rolled-back evaluation: the seed stays in
                        // `tried`, so the pass moves on to narrower VFs.
                    }
                    vf /= 2;
                }
                // Cheapest per-lane cost first (cross-multiplied to stay
                // in integers); ties prefer the wider factor.
                candidates.sort_by(|a, b| {
                    (a.2 * b.0 as i64).cmp(&(b.2 * a.0 as i64)).then(b.0.cmp(&a.0))
                });
                if cx.cfg.sabotage == Sabotage::CommitWorstVf {
                    // Fault injection: prefer the most expensive per-lane
                    // candidate, which the cross-VF oracle must flag.
                    candidates.reverse();
                }
                for (_, bundle, cost, attempt_idx, graph) in candidates {
                    if let Some(stats) = commit_pack(cx, bundle, an, Some(graph))? {
                        mark_committed(cx.report, attempt_idx, cost, &stats);
                        continue 'restart;
                    }
                    // Rolled back: fall through to the next-best VF.
                    an = Analyses::of(cx);
                }
                i += 1;
            }
        }
        break;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Global: DP + bounded branch-and-bound over candidate pack sets
// ---------------------------------------------------------------------------

/// goSLP-style global packer: enumerate candidate packs across every seed
/// chain position and legal VF, select a pack set per chain by dynamic
/// programming (refined by bounded branch-and-bound over inter-pack
/// permutation penalties), commit the plan, and keep the result only when
/// it beats a trial greedy run on the same function ([`function_cost`]).
pub struct GlobalStrategy;

impl Strategy for GlobalStrategy {
    fn kind(&self) -> PackingStrategy {
        PackingStrategy::Global
    }

    fn run(&self, cx: &mut PackCx<'_>) -> Result<(), GuardError> {
        if cx.cfg.sabotage == Sabotage::CommitWorstPackSet {
            // Fault injection: commit the empty pack set and skip the
            // greedy floor — the costliest legal selection, which the
            // packing-quality oracle must flag.
            return Ok(());
        }
        // Trial both plans on the real function inside rolled-back
        // transactions, measuring post-DCE artifacts with `function_cost`.
        let global_cost = trial_cost(cx, PackingStrategy::Global)?;
        let greedy_cost = trial_cost(cx, PackingStrategy::Greedy)?;
        // Strictly-cheaper keeps global; ties and fuel exhaustion re-run
        // greedy deterministically (the greedy floor).
        match (global_cost, greedy_cost) {
            (Some(gl), Some(gr)) if gl < gr && !*cx.fuel_spent => run_global_plan(cx),
            _ => run_greedy(cx),
        }
    }
}

/// Run one strategy inside a nested IR transaction against a scratch report,
/// sweep dead scalars, and measure the artifact with [`function_cost`];
/// the function is restored before returning. `None` when the trial was
/// cut short by fuel exhaustion (the caller then falls back to greedy).
fn trial_cost(cx: &mut PackCx<'_>, which: PackingStrategy) -> Result<Option<i64>, GuardError> {
    if *cx.fuel_spent {
        return Ok(None);
    }
    let mark = cx.f.begin_txn();
    let mut scratch = VectorizeReport::default();
    let result = {
        let mut tcx = PackCx {
            f: &mut *cx.f,
            cfg: cx.cfg,
            tm: cx.tm,
            am: &mut *cx.am,
            report: &mut scratch,
            deadline: cx.deadline,
            fuel_spent: &mut *cx.fuel_spent,
        };
        match which {
            PackingStrategy::Greedy => run_greedy(&mut tcx),
            PackingStrategy::Global => run_global_plan(&mut tcx),
        }
    };
    if let Err(e) = result {
        // Strict-guard abort: the guard already rolled the failing attempt
        // back; unwind our transaction too so the caller sees clean state.
        cx.f.rollback_txn(mark);
        return Err(e);
    }
    // Dead scalars distort the comparison (greedy and global leave
    // different residue), so measure what would actually be emitted.
    dce::run(cx.f);
    let cost = function_cost(cx.f, cx.tm);
    cx.f.rollback_txn(mark);
    if *cx.fuel_spent {
        return Ok(None);
    }
    Ok(Some(cost))
}

/// One plannable candidate: a pack of `vf` stores starting at chain
/// position `start`, with its costed attempt row.
#[derive(Clone, Debug)]
struct PlanCand {
    start: usize,
    vf: usize,
    cost: i64,
    attempt_idx: usize,
    bundle: Vec<ValueId>,
}

/// Branch-and-bound node budget per chain per restart round. Bounds the
/// exponential part of the search independently of the wall-clock fuel;
/// exhausting it keeps the DP plan (an incident records the degradation).
const BNB_STEP_BUDGET: usize = 1 << 14;

fn run_global_plan(cx: &mut PackCx<'_>) -> Result<(), GuardError> {
    // Costing survives restarts: bundles are keyed by their store
    // ValueIds, which are stable until the pack containing them commits.
    // `tried` gates Attempt rows (once per bundle), `costed` feeds the
    // planner, `failed` excludes packs whose commit rolled back — without
    // it a failing planned pack would be re-planned forever; without
    // `costed` a pack costed in round 1 but planned in round 2 would
    // starve behind the `tried` gate.
    let mut tried: HashSet<Vec<ValueId>> = HashSet::default();
    let mut costed: HashMap<Vec<ValueId>, (i64, usize)> = HashMap::default();
    let mut failed: HashSet<Vec<ValueId>> = HashSet::default();
    'restart: loop {
        fuel_check(cx)?;
        if *cx.fuel_spent {
            break;
        }
        let mut an = Analyses::of(cx);
        let chains = collect_store_chains(cx.f, &an.addr);
        for chain in &chains {
            let Some(elem) = cx.f.ty(cx.f.args_of(chain.stores[0])[0]).elem() else {
                record_unsupported(cx, &an.addr, chain, &mut tried)?;
                continue;
            };
            let max_vf = (cx.tm.max_vf(elem) as usize).min(cx.cfg.max_vf as usize);
            // Phase 1: enumerate every position × legal VF of this chain
            // (greedy only explores positions its commits leave behind —
            // missing exactly the plans this strategy exists to find).
            let mut cands: Vec<PlanCand> = Vec::new();
            for start in 0..chain.len() {
                let mut vf = pow2_floor((chain.len() - start).min(max_vf));
                while vf >= 2 {
                    fuel_check(cx)?;
                    if *cx.fuel_spent {
                        break 'restart;
                    }
                    let bundle = chain.stores[start..start + vf].to_vec();
                    if tried.insert(bundle.clone()) {
                        if let Some((cost, idx, _)) =
                            cost_bundle(cx, &bundle, vf, &an, PackingStrategy::Global)?
                        {
                            if cost < cx.cfg.cost_threshold {
                                costed.insert(bundle.clone(), (cost, idx));
                            }
                        }
                    }
                    if !failed.contains(&bundle) {
                        if let Some(&(cost, attempt_idx)) = costed.get(&bundle) {
                            cands.push(PlanCand { start, vf, cost, attempt_idx, bundle });
                        }
                    }
                    vf /= 2;
                }
            }
            if cands.is_empty() {
                continue;
            }
            // Phase 2: select the pack set for this chain.
            let plan = select_pack_set(cx, elem, chain.len(), &cands)?;
            // Phase 3: commit the first planned pack, then restart so the
            // next round plans against fresh analyses (positions and uses
            // shift under the committed rewrite).
            for pick in plan {
                if let Some(stats) = commit_pack(cx, &pick.bundle, an, None)? {
                    mark_committed(cx.report, pick.attempt_idx, pick.cost, &stats);
                    continue 'restart;
                }
                failed.insert(pick.bundle.clone());
                an = Analyses::of(cx);
            }
        }
        break;
    }
    Ok(())
}

/// Phase 2 for one chain: choose a set of non-overlapping packs minimizing
/// total cost. DP (weighted interval scheduling over the chain line) is
/// exact when packs are independent; branch-and-bound then re-scores plans
/// *with* the inter-pack permutation penalty for abutting packs of
/// different shapes, pruned by the DP bound and capped by
/// [`BNB_STEP_BUDGET`] — on budget exhaustion the DP plan stands.
fn select_pack_set(
    cx: &mut PackCx<'_>,
    elem: lslp_ir::ScalarType,
    chain_len: usize,
    cands: &[PlanCand],
) -> Result<Vec<PlanCand>, GuardError> {
    // Candidates starting at each position, for O(1) DP transitions.
    let mut at: Vec<Vec<&PlanCand>> = vec![Vec::new(); chain_len];
    for c in cands {
        at[c.start].push(c);
    }
    // dp[j] = cheapest achievable total cost over positions j.. ignoring
    // inter-pack penalties (a valid lower bound: penalties are >= 0).
    let mut dp = vec![0i64; chain_len + 1];
    for j in (0..chain_len).rev() {
        dp[j] = dp[j + 1];
        for c in &at[j] {
            dp[j] = dp[j].min(c.cost + dp[j + c.vf]);
        }
    }
    if dp[0] == 0 {
        return Ok(Vec::new()); // nothing profitable anywhere on this chain
    }
    // Reconstruct the DP plan (ties to the wider pack, mirroring greedy's
    // wider-first tiebreak).
    let mut dp_plan: Vec<PlanCand> = Vec::new();
    let mut j = 0;
    while j < chain_len {
        let mut picked: Option<&PlanCand> = None;
        for c in &at[j] {
            if c.cost + dp[j + c.vf] == dp[j] {
                picked = match picked {
                    Some(p) if p.vf >= c.vf => Some(p),
                    _ => Some(c),
                };
            }
        }
        match picked {
            Some(c)
                if dp[j] != dp[j + 1]
                    || picked.is_some_and(|p| p.cost + dp[j + p.vf] < dp[j + 1]) =>
            {
                dp_plan.push(c.clone());
                j += c.vf;
            }
            _ => j += 1,
        }
    }
    // Branch-and-bound refinement under the full score (pack costs plus
    // `cross_pack_shuffle_cost` for abutting packs of different VFs).
    let mut best_plan = dp_plan;
    let mut best_score = plan_score(cx.tm, elem, &best_plan);
    let mut steps = 0usize;
    let mut stack: Vec<(usize, i64, Vec<PlanCand>)> = vec![(0, 0, Vec::new())];
    while let Some((j, score, partial)) = stack.pop() {
        steps += 1;
        if steps > BNB_STEP_BUDGET {
            guard::record(
                cx.cfg.guard,
                &mut cx.report.incidents,
                Incident {
                    pass: "vectorize".into(),
                    seed: None,
                    kind: IncidentKind::FuelExhausted,
                    detail: format!(
                        "branch-and-bound budget of {BNB_STEP_BUDGET} nodes exhausted; \
                         DP pack plan kept"
                    ),
                },
            )?;
            break;
        }
        if j >= chain_len {
            if score < best_score {
                best_score = score;
                best_plan = partial;
            }
            continue;
        }
        // Prune: even the penalty-free optimum of the remainder cannot
        // beat the incumbent.
        if score + dp[j] >= best_score {
            // The empty-tail completion may still win at exactly score.
            if score < best_score && partial.iter().map(|c| c.cost).sum::<i64>() == score {
                // handled when j reaches chain_len via the skip branch
            }
            if score + dp[j] > best_score {
                continue;
            }
        }
        // Skip this position.
        stack.push((j + 1, score, partial.clone()));
        // Or take a candidate starting here.
        for c in &at[j] {
            let penalty = match partial.last() {
                Some(prev) if prev.start + prev.vf == c.start => {
                    cx.tm.cross_pack_shuffle_cost(elem, prev.vf as u32, c.vf as u32)
                }
                _ => 0,
            };
            let mut next = partial.clone();
            next.push((*c).clone());
            stack.push((j + c.vf, score + c.cost + penalty, next));
        }
    }
    Ok(best_plan)
}

/// Full score of a plan: pack costs plus inter-pack permutation penalties
/// for abutting packs of different shapes.
fn plan_score(tm: &CostModel, elem: lslp_ir::ScalarType, plan: &[PlanCand]) -> i64 {
    let mut score: i64 = plan.iter().map(|c| c.cost).sum();
    for w in plan.windows(2) {
        if w[0].start + w[0].vf == w[1].start {
            score += tm.cross_pack_shuffle_cost(elem, w[0].vf as u32, w[1].vf as u32);
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::vectorize_function;
    use lslp_ir::{FunctionBuilder, Type};

    #[test]
    fn pow2_floor_values() {
        assert_eq!(pow2_floor(0), 0);
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(2), 2);
        assert_eq!(pow2_floor(3), 2);
        assert_eq!(pow2_floor(4), 4);
        assert_eq!(pow2_floor(7), 4);
        assert_eq!(pow2_floor(8), 8);
    }

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

    /// The motivating shape for global packing: greedy commits the weak
    /// pack `[0,2)` at position 0 and thereby locks out the strong pack
    /// `[1,3)`; the global planner takes `[1,3)`.
    ///
    /// Lanes: `A[0]=B[0]+x; A[1]=B[1]+C[1]; A[2]=B[2]+C[2]; A[3]=y`.
    fn greedy_trap_kernel() -> Function {
        let mut f = Function::new("trap");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let i = f.add_param("i", Type::I64);
        for o in 0..3i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let rhs = if o == 0 {
                x
            } else {
                let gc = b.gep(pc, idx, 8);
                b.load(Type::I64, gc)
            };
            let s = b.add(lb, rhs);
            let ga = b.gep(pa, idx, 8);
            b.store(s, ga);
        }
        {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(3);
            let idx = b.add(i, off);
            let ga = b.gep(pa, idx, 8);
            b.store(y, ga);
        }
        f
    }

    fn cfg_with(packing: PackingStrategy) -> VectorizerConfig {
        VectorizerConfig { packing, ..VectorizerConfig::lslp() }
    }

    #[test]
    fn global_matches_greedy_on_a_clean_kernel() {
        let tm = CostModel::default();
        let mut fg = axpy_kernel(4);
        let mut fo = axpy_kernel(4);
        let rg = vectorize_function(&mut fg, &cfg_with(PackingStrategy::Greedy), &tm);
        let ro = vectorize_function(&mut fo, &cfg_with(PackingStrategy::Global), &tm);
        assert_eq!(rg.trees_vectorized, 1);
        assert_eq!(ro.trees_vectorized, 1);
        assert_eq!(function_cost(&fg, &tm), function_cost(&fo, &tm));
        lslp_ir::verify_function(&fo).unwrap();
    }

    #[test]
    fn global_escapes_the_greedy_trap() {
        let tm = CostModel::default();
        let mut fg = greedy_trap_kernel();
        let mut fo = greedy_trap_kernel();
        let rg = vectorize_function(&mut fg, &cfg_with(PackingStrategy::Greedy), &tm);
        let ro = vectorize_function(&mut fo, &cfg_with(PackingStrategy::Global), &tm);
        // Greedy commits the weak [0,2) pack; global must do strictly
        // better by selecting [1,3) instead.
        assert!(rg.trees_vectorized >= 1);
        assert!(ro.trees_vectorized >= 1);
        assert!(
            function_cost(&fo, &tm) < function_cost(&fg, &tm),
            "global {} !< greedy {}",
            function_cost(&fo, &tm),
            function_cost(&fg, &tm)
        );
        assert!(ro.applied_cost < rg.applied_cost, "{} !< {}", ro.applied_cost, rg.applied_cost);
        lslp_ir::verify_function(&fo).unwrap();
    }

    #[test]
    fn committed_attempts_record_their_strategy() {
        let tm = CostModel::default();
        let mut f = greedy_trap_kernel();
        let report = vectorize_function(&mut f, &cfg_with(PackingStrategy::Global), &tm);
        let committed: Vec<_> = report.attempts.iter().filter(|a| a.vectorized).collect();
        assert!(!committed.is_empty());
        assert!(committed.iter().all(|a| a.strategy == PackingStrategy::Global), "{committed:?}");

        let mut f = axpy_kernel(4);
        let report = vectorize_function(&mut f, &cfg_with(PackingStrategy::Greedy), &tm);
        assert!(report
            .attempts
            .iter()
            .filter(|a| a.vectorized)
            .all(|a| a.strategy == PackingStrategy::Greedy));
    }

    #[test]
    fn worst_pack_set_sabotage_commits_nothing_under_global() {
        let tm = CostModel::default();
        let cfg = VectorizerConfig {
            sabotage: Sabotage::CommitWorstPackSet,
            ..cfg_with(PackingStrategy::Global)
        };
        let mut f = axpy_kernel(4);
        let before = function_cost(&f, &tm);
        let report = vectorize_function(&mut f, &cfg, &tm);
        assert_eq!(report.trees_vectorized, 0);
        assert_eq!(function_cost(&f, &tm), before);
        // Greedy ignores this sabotage entirely.
        let mut f = axpy_kernel(4);
        let cfg = VectorizerConfig { packing: PackingStrategy::Greedy, ..cfg.clone() };
        assert_eq!(vectorize_function(&mut f, &cfg, &tm).trees_vectorized, 1);
    }

    #[test]
    fn function_cost_orders_scalar_above_vector() {
        let tm = CostModel::default();
        let scalar = axpy_kernel(4);
        let mut vectored = axpy_kernel(4);
        vectorize_function(&mut vectored, &VectorizerConfig::lslp(), &tm);
        assert!(function_cost(&vectored, &tm) < function_cost(&scalar, &tm));
    }

    #[test]
    fn global_degrades_to_greedy_when_fuel_is_spent() {
        // A 1ms budget on a wide kernel: the pass must terminate, verify,
        // and never be costlier than the scalar original.
        let tm = CostModel::default();
        let cfg = VectorizerConfig { time_budget_ms: Some(1), ..cfg_with(PackingStrategy::Global) };
        let mut f = axpy_kernel(64);
        let scalar_cost = function_cost(&f, &tm);
        let _ = vectorize_function(&mut f, &cfg, &tm);
        lslp_ir::verify_function(&f).unwrap();
        assert!(function_cost(&f, &tm) <= scalar_cost);
    }
}
