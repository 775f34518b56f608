//! Horizontal-reduction vectorization (the paper's second seed class).
//!
//! §2.2 lists "instructions that lead to idioms such as reduction trees
//! (e.g. a reduction tree of additions)" as vectorization seeds alongside
//! store chains. A reduction root is a chain of one associative commutative
//! opcode whose frontier has `n ≥ 4` operands; the first `m = 2^k` of them
//! become the *lanes* of a vector built by the ordinary SLP graph, and the
//! chain itself is replaced by a logarithmic shuffle-reduce of that vector
//! (any leftover operands are folded in scalarly).
//!
//! The paper's evaluation does not exercise reductions (its figures are
//! store-seeded), so the feature is off in the standard presets and
//! enabled via [`VectorizerConfig::enable_reductions`]; the
//! `ext_reductions` binary of `lslp-bench` measures its effect as an
//! extension study.

use lslp_analysis::{AnalysisManager, PositionMap};
use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{Function, InstAttr, Opcode, UseMap, ValueId};
use lslp_target::CostModel;

use crate::codegen;
use crate::config::VectorizerConfig;
use crate::cost::graph_cost_excluding;
use crate::graph::GraphBuilder;
use crate::multinode::build_lane_chain;

/// A candidate reduction: the chain root, its opcode, the frontier
/// operands chosen as vector lanes, and the scalar leftovers.
#[derive(Clone, Debug)]
pub struct ReductionCandidate {
    /// The chain root instruction (its value is what gets replaced).
    pub root: ValueId,
    /// The reduced opcode.
    pub op: Opcode,
    /// Frontier operands vectorized as lanes (a power of two, ≥ 4).
    pub lanes: Vec<ValueId>,
    /// Frontier operands beyond the vector width, reduced scalarly.
    pub leftovers: Vec<ValueId>,
    /// The chain instructions (root first) that the reduction replaces.
    pub chain: Vec<ValueId>,
}

fn pow2_floor(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Find reduction roots in body order.
///
/// A root is an associative commutative instruction that is not itself
/// absorbable into a larger chain of the same opcode (otherwise the outer
/// root subsumes it).
pub fn find_candidates(
    f: &Function,
    use_map: &UseMap,
    positions: &PositionMap,
    cfg: &VectorizerConfig,
    tm: &CostModel,
) -> Vec<ReductionCandidate> {
    let empty = HashMap::default();
    let mut out = Vec::new();
    for (_, id, inst) in f.iter_body() {
        if !(inst.op.is_commutative() && inst.op.is_associative(cfg.fast_math)) {
            continue;
        }
        let Some(elem) = inst.ty.elem() else { continue };
        if inst.ty.is_vector() {
            continue;
        }
        // Interior chain values belong to their root's candidate.
        let uses = use_map.uses(id);
        if uses.len() == 1 {
            let user = uses[0].user;
            if f.inst(user).is_some_and(|u| u.op == inst.op && u.ty == inst.ty) {
                continue;
            }
        }
        let chain = build_lane_chain(f, use_map, &empty, id, usize::MAX);
        let n = chain.operands.len();
        let m = pow2_floor(n).min(tm.max_vf(elem) as usize).min(cfg.max_vf as usize);
        if m < 4 {
            continue;
        }
        // Reduction lanes are freely permutable (the whole chain is one
        // commutative/associative expression): order them by body position
        // so structurally adjacent terms (and hence their loads) land in
        // adjacent lanes, maximizing the graph's chance of consecutive
        // access groups.
        let mut operands = chain.operands.clone();
        operands.sort_by_key(|&v| positions.key(v).unwrap_or(u64::MAX));
        out.push(ReductionCandidate {
            root: id,
            op: inst.op,
            lanes: operands[..m].to_vec(),
            leftovers: operands[m..].to_vec(),
            chain: chain.insts,
        });
    }
    out
}

/// The extra instructions a log-shuffle reduction emits for `m` lanes.
fn reduction_overhead(tm: &CostModel, op: Opcode, elem: lslp_ir::ScalarType, m: usize) -> i64 {
    let steps = m.trailing_zeros() as i64;
    steps * (tm.shuffle_cost + tm.vector_cost(op, elem, m as u32)) + tm.extract_cost
}

/// Result of one attempted reduction.
#[derive(Clone, Debug)]
pub struct ReductionAttempt {
    /// Human-readable description of the root.
    pub desc: String,
    /// Lane count.
    pub lanes: usize,
    /// Total cost (graph + reduction overhead − replaced scalar chain).
    pub cost: i64,
    /// Whether vector code was generated.
    pub applied: bool,
}

/// Try to vectorize one candidate; mutates `f` on success.
pub fn try_reduction(
    f: &mut Function,
    cand: &ReductionCandidate,
    cfg: &VectorizerConfig,
    tm: &CostModel,
) -> ReductionAttempt {
    try_reduction_with(f, cand, cfg, tm, &mut AnalysisManager::new())
}

/// [`try_reduction`], pulling analyses from `am`'s cache.
pub fn try_reduction_with(
    f: &mut Function,
    cand: &ReductionCandidate,
    cfg: &VectorizerConfig,
    tm: &CostModel,
    am: &mut AnalysisManager,
) -> ReductionAttempt {
    let m = cand.lanes.len();
    let elem = f.ty(cand.root).elem().expect("scalar reduction root");
    let desc = format!(
        "reduce {} x{} at %{}",
        cand.op,
        m,
        f.value_name(cand.root).unwrap_or(&cand.root.to_string())
    );

    let addr = am.addr_info(f);
    let positions = am.positions(f);
    let use_map = am.use_map(f);
    let graph = GraphBuilder::new(f, cfg, tm, &addr, &positions, &use_map).build(&cand.lanes);
    let doomed: HashSet<ValueId> = cand.chain.iter().copied().collect();
    let tree_cost = graph_cost_excluding(f, &graph, tm, &use_map, &doomed);
    let replaced_chain_ops = (m - 1) as i64;
    let cost = tree_cost.total + reduction_overhead(tm, cand.op, elem, m)
        - replaced_chain_ops * tm.scalar_cost(cand.op);
    if cost >= cfg.cost_threshold {
        return ReductionAttempt { desc, lanes: m, cost, applied: false };
    }

    // Materialize the lane tree; its root value is the vector to reduce.
    let tree = codegen::generate_tree_with(f, &graph, tm, am);
    let vec_val = tree.root_value.expect("reduction tree produces a value");

    // Insert the log-shuffle reduction after the vector value and after
    // every leftover operand's definition (all of which precede the chain
    // root, so the replacement still dominates the root's users).
    let positions = am.positions(f);
    let last = std::iter::once(vec_val)
        .chain(cand.leftovers.iter().copied())
        .filter_map(|v| Some((positions.key(v)?, v)))
        .max()
        .map(|(_, v)| v)
        .expect("the vector value is in the body");
    let mut at = positions.index_in(f.body(), last).expect("keyed values are in the body") + 1;
    let vty = f.ty(vec_val);
    let mut cur = vec_val;
    let mut width = m;
    while width > 1 {
        let half = width / 2;
        // Lane j takes lane j+half for j < half; upper lanes keep their
        // value (their content no longer matters).
        let mask: Vec<u32> =
            (0..m as u32).map(|j| if (j as usize) < half { j + half as u32 } else { j }).collect();
        let shuf = f.insert(at, Opcode::ShuffleVector, vty, vec![cur, cur], InstAttr::Mask(mask));
        at += 1;
        cur = f.insert(at, cand.op, vty, vec![cur, shuf], InstAttr::None);
        at += 1;
        width = half;
    }
    let lane0 = f.const_i64(0);
    let mut result = f.insert(
        at,
        Opcode::ExtractElement,
        lslp_ir::Type::Scalar(elem),
        vec![cur, lane0],
        InstAttr::None,
    );
    at += 1;
    for &left in &cand.leftovers {
        result = f.insert(at, cand.op, f.ty(cand.root), vec![result, left], InstAttr::None);
        at += 1;
    }
    // Every user of the chain root is positioned after it, which is after
    // the inserted sequence, so the replacement dominates all uses; the
    // dead chain is swept by DCE.
    f.replace_uses(cand.root, result);
    crate::dce::run(f);
    debug_assert!(lslp_ir::verify_function(f).is_ok());
    ReductionAttempt { desc, lanes: m, cost, applied: true }
}

/// Run reduction vectorization over a function until no candidate applies;
/// returns all attempts. Called by the pass driver when
/// [`VectorizerConfig::enable_reductions`] is set.
pub fn run(f: &mut Function, cfg: &VectorizerConfig, tm: &CostModel) -> Vec<ReductionAttempt> {
    run_with(f, cfg, tm, &mut AnalysisManager::new())
}

/// [`run`], sharing the caller's analysis cache.
pub fn run_with(
    f: &mut Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
    am: &mut AnalysisManager,
) -> Vec<ReductionAttempt> {
    let mut attempts = Vec::new();
    let mut tried: HashSet<ValueId> = HashSet::default();
    'restart: loop {
        let use_map = am.use_map(f);
        let positions = am.positions(f);
        let candidates = find_candidates(f, &use_map, &positions, cfg, tm);
        for cand in candidates {
            if !tried.insert(cand.root) {
                continue;
            }
            let attempt = try_reduction_with(f, &cand, cfg, tm, am);
            let applied = attempt.applied;
            attempts.push(attempt);
            if applied {
                continue 'restart;
            }
        }
        return attempts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    /// `s = X[i]*Y[i] + X[i+1]*Y[i+1] + X[i+2]*Y[i+2] + X[i+3]*Y[i+3]`,
    /// stored scalarly — the classic dot-product step.
    fn dot4() -> (Function, ValueId) {
        let mut f = Function::new("dot4");
        let r = f.add_param("R", Type::PTR);
        let px = f.add_param("X", Type::PTR);
        let py = f.add_param("Y", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let mut terms = Vec::new();
        for o in 0..4i64 {
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gx = b.gep(px, idx, 8);
            let lx = b.load(Type::F64, gx);
            let gy = b.gep(py, idx, 8);
            let ly = b.load(Type::F64, gy);
            terms.push(b.fmul(lx, ly));
        }
        let s01 = b.fadd(terms[0], terms[1]);
        let s012 = b.fadd(s01, terms[2]);
        let root = b.fadd(s012, terms[3]);
        let gr = b.gep(r, i, 8);
        b.store(root, gr);
        (f, root)
    }

    fn cfg_with_reductions() -> VectorizerConfig {
        VectorizerConfig { enable_reductions: true, ..VectorizerConfig::lslp() }
    }

    #[test]
    fn detects_dot_product_candidate() {
        let (f, root) = dot4();
        let um = f.use_map();
        let pos = f.position_map();
        let cands = find_candidates(&f, &um, &pos, &cfg_with_reductions(), &CostModel::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].root, root);
        assert_eq!(cands[0].lanes.len(), 4);
        assert!(cands[0].leftovers.is_empty());
    }

    #[test]
    fn interior_chain_nodes_are_not_candidates() {
        let (f, root) = dot4();
        let um = f.use_map();
        let pos = f.position_map();
        let cands = find_candidates(&f, &um, &pos, &cfg_with_reductions(), &CostModel::default());
        // Only the outermost fadd is a root; s01/s012 are interior.
        assert!(cands.iter().all(|c| c.root == root));
    }

    #[test]
    fn vectorizes_dot_product_with_hreduce() {
        let (mut f, _) = dot4();
        let attempts = run(&mut f, &cfg_with_reductions(), &CostModel::default());
        assert_eq!(attempts.len(), 1);
        assert!(attempts[0].applied, "cost {}", attempts[0].cost);
        assert!(attempts[0].cost < 0);
        lslp_ir::verify_function(&f).unwrap();
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("fmul <4 x f64>"), "{text}");
        assert_eq!(text.matches("shufflevector").count(), 2, "log2(4) steps:\n{text}");
        assert!(text.contains("extractelement"), "{text}");
        assert!(!text.contains("fadd f64"), "scalar chain must be gone:\n{text}");
    }

    #[test]
    fn reduction_preserves_semantics() {
        use lslp_interp::{run_function, Memory, Value};
        let (scalar, _) = dot4();
        let mut vectorized = scalar.clone();
        run(&mut vectorized, &cfg_with_reductions(), &CostModel::default());
        let exec = |f: &Function| {
            let mut mem = Memory::new();
            mem.alloc_f64("R", &[0.0; 8]);
            mem.alloc_f64("X", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            mem.alloc_f64("Y", &[0.5, 0.25, 2.0, 1.0, 1.5, 3.0, 0.125, 2.5]);
            let args = vec![
                mem.ptr("R").unwrap(),
                mem.ptr("X").unwrap(),
                mem.ptr("Y").unwrap(),
                Value::Int(0),
            ];
            run_function(f, &args, &mut mem).unwrap();
            mem.read_f64("R", 0).unwrap()
        };
        let a = exec(&scalar);
        let b = exec(&vectorized);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        assert_eq!(a, 1.0 * 0.5 + 2.0 * 0.25 + 3.0 * 2.0 + 4.0 * 1.0);
    }

    #[test]
    fn leftover_operands_fold_scalarly() {
        // A 5-term integer reduction: 4 lanes + 1 leftover.
        let mut f = Function::new("sum5");
        let r = f.add_param("R", Type::PTR);
        let px = f.add_param("X", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let mut acc = None;
        for o in 0..5i64 {
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let g = b.gep(px, idx, 8);
            let l = b.load(Type::I64, g);
            acc = Some(match acc {
                None => l,
                Some(a) => b.add(a, l),
            });
        }
        let gr = b.gep(r, i, 8);
        b.store(acc.unwrap(), gr);
        let attempts = run(&mut f, &cfg_with_reductions(), &CostModel::default());
        assert!(attempts[0].applied, "cost {}", attempts[0].cost);
        assert_eq!(attempts[0].lanes, 4);
        lslp_ir::verify_function(&f).unwrap();
        // Semantics: sum of 5 elements.
        use lslp_interp::{run_function, Memory, Value};
        let mut mem = Memory::new();
        mem.alloc_i64("R", &[0; 8]);
        mem.alloc_i64("X", &[10, 20, 30, 40, 50, 60]);
        let args = vec![mem.ptr("R").unwrap(), mem.ptr("X").unwrap(), Value::Int(0)];
        run_function(&f, &args, &mut mem).unwrap();
        assert_eq!(mem.read_i64("R", 0), Some(150));
    }

    #[test]
    fn unprofitable_reductions_are_skipped() {
        // Lanes are four unrelated parameters: gathering costs more than
        // the chain saves.
        let mut f = Function::new("args4");
        let r = f.add_param("R", Type::PTR);
        let params: Vec<ValueId> =
            (0..4).map(|k| f.add_param(format!("p{k}"), Type::I64)).collect();
        let mut b = FunctionBuilder::new(&mut f);
        let s01 = b.add(params[0], params[1]);
        let s012 = b.add(s01, params[2]);
        let root = b.add(s012, params[3]);
        b.store(root, r);
        let attempts = run(&mut f, &cfg_with_reductions(), &CostModel::default());
        assert_eq!(attempts.len(), 1);
        assert!(!attempts[0].applied);
        assert!(attempts[0].cost >= 0, "cost {}", attempts[0].cost);
    }

    #[test]
    fn strict_fp_disables_fadd_reductions() {
        let (mut f, _) = dot4();
        let cfg = VectorizerConfig { fast_math: false, ..cfg_with_reductions() };
        let attempts = run(&mut f, &cfg, &CostModel::default());
        assert!(attempts.is_empty(), "fadd chains need reassociation");
    }
}
