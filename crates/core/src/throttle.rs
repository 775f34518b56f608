//! SLP-graph throttling (extension; the paper's related work \[22\],
//! Porpodas & Jones, *"Throttling automatic vectorization: When less is
//! more"*, PACT 2015).
//!
//! The bottom-up SLP graph sometimes contains subtrees whose vectorization
//! is a net loss (e.g. a vectorizable ALU group whose operands both end in
//! expensive gathers): plain (L)SLP only makes a whole-tree decision, so
//! one bad region can sink an otherwise profitable tree. Throttling runs a
//! bottom-up dynamic program over the graph: each vectorizable node either
//! stays vectorized (its own saving plus its children's best costs) or the
//! tree is *cut* at that point (the node's bundle is gathered instead and
//! the subtree below stays scalar). Cutting never invalidates
//! correctness — a gather of instruction results is always legal — so the
//! DP can choose the cost-minimal frontier.

use std::collections::HashSet;

use lslp_ir::{Function, UseMap, ValueId};
use lslp_target::CostModel;

use crate::graph::{GatherReason, NodeId, NodeKind, SlpGraph};

/// The outcome of throttling one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThrottleReport {
    /// Nodes demoted to gathers (tree cut points).
    pub cuts: Vec<NodeId>,
    /// Total cost before throttling.
    pub cost_before: i64,
    /// Total cost after throttling.
    pub cost_after: i64,
}

/// Per-node DP value: the cheapest cost of the subtree rooted at a node.
struct Dp {
    /// Best achievable cost of the subtree.
    best: i64,
    /// Whether the best choice cuts (gathers) at this node.
    cut: bool,
}

fn gather_cost_of(f: &Function, tm: &CostModel, scalars: &[ValueId]) -> i64 {
    let any_non_const = scalars.iter().any(|&s| !f.is_const(s));
    let splat = any_non_const && scalars.iter().all(|&s| s == scalars[0]);
    tm.gather_cost(scalars.len() as u32, any_non_const, splat)
}

fn solve(
    f: &Function,
    graph: &SlpGraph,
    tm: &CostModel,
    per_node: &[i64],
    node: NodeId,
    memo: &mut Vec<Option<Dp>>,
) -> i64 {
    if let Some(dp) = &memo[node] {
        return dp.best;
    }
    let n = graph.node(node);
    let vectorized_cost = per_node[node]
        + n.operands.iter().map(|&c| solve(f, graph, tm, per_node, c, memo)).sum::<i64>();
    let dp = match n.kind {
        // Gathers and the root (stores) have no cut alternative: stores
        // are the seed the whole attempt exists for, and gathers already
        // are cuts.
        NodeKind::Gather { .. } | NodeKind::Store => Dp { best: vectorized_cost, cut: false },
        _ => {
            let cut_cost = gather_cost_of(f, tm, &n.scalars);
            if cut_cost < vectorized_cost {
                Dp { best: cut_cost, cut: true }
            } else {
                Dp { best: vectorized_cost, cut: false }
            }
        }
    };
    let best = dp.best;
    memo[node] = Some(dp);
    best
}

fn collect_cuts(graph: &SlpGraph, memo: &[Option<Dp>], node: NodeId, cuts: &mut Vec<NodeId>) {
    let Some(dp) = &memo[node] else { return };
    if dp.cut {
        cuts.push(node);
        return; // the subtree below stays scalar; no deeper cuts needed
    }
    for &c in &graph.node(node).operands {
        collect_cuts(graph, memo, c, cuts);
    }
}

/// Throttle a graph in place: demote cost-harmful subtrees to gathers.
///
/// `use_map` must be the same snapshot used for the surrounding cost
/// computation. Returns what was cut and the cost before/after (computed
/// with [`crate::cost::graph_cost`], so extract-cost effects are included).
pub fn throttle(
    f: &Function,
    graph: &mut SlpGraph,
    tm: &CostModel,
    use_map: &UseMap,
) -> ThrottleReport {
    let before = crate::cost::graph_cost(f, graph, tm, use_map);
    let mut memo: Vec<Option<Dp>> = (0..graph.nodes().len()).map(|_| None).collect();
    solve(f, graph, tm, &before.per_node, graph.root(), &mut memo);
    let mut cuts = Vec::new();
    collect_cuts(graph, &memo, graph.root(), &mut cuts);
    // Demote: unreachable nodes below a cut stay in the node list but are
    // detached, so codegen (a root-reachable traversal) never emits them.
    let cut_set: HashSet<NodeId> = cuts.iter().copied().collect();
    for &c in &cut_set {
        graph.demote_to_gather(c, GatherReason::Throttled);
    }
    let after = crate::cost::graph_cost_reachable(f, graph, tm, use_map);
    ThrottleReport { cuts, cost_before: before.total, cost_after: after.total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VectorizerConfig;
    use crate::graph::GraphBuilder;
    use lslp_analysis::AddrInfo;
    use lslp_ir::{FunctionBuilder, Type};

    fn build(f: &Function, seeds: &[ValueId]) -> SlpGraph {
        let cfg = VectorizerConfig::lslp();
        let tm = lslp_target::TargetSpec::default();
        let addr = AddrInfo::analyze(f);
        let positions = f.position_map();
        let use_map = f.use_map();
        GraphBuilder::new(f, &cfg, &tm, &addr, &positions, &use_map).build(seeds)
    }

    /// `A[i+o] = (x_o * y_o) ^ B[i+o]`: the xor group is worth keeping but
    /// the mul group's operands are four distinct scalars (two gathers of
    /// +2 each vs the mul's −1 saving) — cutting at the muls wins.
    #[test]
    fn cuts_gather_heavy_subtree() {
        let mut f = Function::new("t");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let xs: Vec<ValueId> = (0..2).map(|k| f.add_param(format!("x{k}"), Type::I64)).collect();
        let ys: Vec<ValueId> = (0..2).map(|k| f.add_param(format!("y{k}"), Type::I64)).collect();
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let m = b.mul(xs[o as usize], ys[o as usize]);
            let v = b.xor(m, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(v, ga));
        }
        let mut graph = build(&f, &stores);
        let tm = CostModel::skylake_avx2();
        let um = f.use_map();
        let report = throttle(&f, &mut graph, &tm, &um);
        assert!(!report.cuts.is_empty(), "mul subtree should be cut");
        assert!(
            report.cost_after < report.cost_before,
            "throttling must improve: {} -> {}",
            report.cost_before,
            report.cost_after
        );
        // The cut node is now a gather with the Throttled reason.
        let cut = report.cuts[0];
        assert!(matches!(
            graph.node(cut).kind,
            NodeKind::Gather { reason: GatherReason::Throttled }
        ));
    }

    /// A fully profitable tree is left untouched.
    #[test]
    fn profitable_trees_are_not_cut() {
        let mut f = Function::new("t");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..4i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let s = b.add(lb, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        let mut graph = build(&f, &stores);
        let tm = CostModel::skylake_avx2();
        let um = f.use_map();
        let report = throttle(&f, &mut graph, &tm, &um);
        assert!(report.cuts.is_empty());
        assert_eq!(report.cost_before, report.cost_after);
    }

    /// Throttling can rescue a tree that would otherwise be rejected:
    /// the overall cost flips from non-profitable to profitable.
    #[test]
    fn throttling_rescues_borderline_trees() {
        // Stores of (deep gather-heavy expr) + B[i+o]: without a cut the
        // gathers outweigh everything.
        let mut f = Function::new("t");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let params: Vec<ValueId> =
            (0..8).map(|k| f.add_param(format!("p{k}"), Type::I64)).collect();
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            // A two-level scalar-parameter tree: sub(shl) shapes that group
            // but gather at every leaf.
            let k = (o * 4) as usize;
            let s1 = b.sub(params[k], params[k + 1]);
            let s2 = b.sub(params[k + 2], params[k + 3]);
            let m = b.mul(s1, s2);
            let v = b.add(m, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(v, ga));
        }
        let mut graph = build(&f, &stores);
        let tm = CostModel::skylake_avx2();
        let um = f.use_map();
        let report = throttle(&f, &mut graph, &tm, &um);
        assert!(report.cost_after <= report.cost_before);
        assert!(!report.cuts.is_empty(), "{}", graph.dump(&f));
    }
}

#[cfg(test)]
mod integration {
    use super::*;
    use crate::config::VectorizerConfig;
    use crate::pass::vectorize_function;
    use lslp_ir::{FunctionBuilder, Type};

    /// With throttling in the pass, a tree whose bad subtree outweighed the
    /// good part vectorizes (partially) where plain LSLP rejected it whole.
    #[test]
    fn pass_level_throttling_rescues_trees() {
        // Stores of (8-scalar-param tree) * B[i+o]: heavy gathers below the
        // mul, a profitable load/store skeleton above it.
        let build = || {
            let mut f = Function::new("t");
            let pa = f.add_param("A", Type::PTR);
            let pb = f.add_param("B", Type::PTR);
            let params: Vec<ValueId> =
                (0..8).map(|k| f.add_param(format!("p{k}"), Type::I64)).collect();
            let i = f.add_param("i", Type::I64);
            let mut stores = Vec::new();
            for o in 0..2i64 {
                let mut b = FunctionBuilder::new(&mut f);
                let off = b.func().const_i64(o);
                let idx = b.add(i, off);
                let gb = b.gep(pb, idx, 8);
                let lb = b.load(Type::I64, gb);
                let k = (o * 4) as usize;
                let s1 = b.sub(params[k], params[k + 1]);
                let s2 = b.sub(params[k + 2], params[k + 3]);
                let m = b.mul(s1, s2);
                let v = b.add(m, lb);
                let ga = b.gep(pa, idx, 8);
                stores.push(b.store(v, ga));
            }
            f
        };
        let tm = CostModel::skylake_avx2();
        let mut plain = build();
        let r1 = vectorize_function(&mut plain, &VectorizerConfig::lslp(), &tm);
        let mut thr = build();
        let cfg = VectorizerConfig::preset("LSLP-Throttle").unwrap();
        let r2 = vectorize_function(&mut thr, &cfg, &tm);
        assert!(r2.applied_cost <= r1.applied_cost);
        assert!(
            r2.trees_vectorized >= r1.trees_vectorized,
            "throttling must not lose trees: {} vs {}",
            r2.trees_vectorized,
            r1.trees_vectorized
        );
        lslp_ir::verify_function(&thr).unwrap();
    }

    /// Throttled codegen executes correctly: the demoted subtree stays
    /// scalar and feeds the vector code through a gather.
    #[test]
    fn throttled_codegen_preserves_semantics() {
        use lslp_interp::{run_function, Memory, Value};
        let mut f = Function::new("t");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let params: Vec<ValueId> =
            (0..4).map(|k| f.add_param(format!("p{k}"), Type::I64)).collect();
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let k = (o * 2) as usize;
            let m = b.mul(params[k], params[k + 1]);
            let v = b.xor(m, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(v, ga));
        }
        let scalar = f.clone();
        let cfg = VectorizerConfig::preset("LSLP-Throttle").unwrap();
        vectorize_function(&mut f, &cfg, &CostModel::skylake_avx2());
        lslp_ir::verify_function(&f).unwrap();
        let exec = |g: &Function| {
            let mut mem = Memory::new();
            mem.alloc_i64("A", &[0; 8]);
            mem.alloc_i64("B", &[11, 22, 33, 44]);
            let mut args = vec![mem.ptr("A").unwrap(), mem.ptr("B").unwrap()];
            args.extend((0..4).map(|k| Value::Int(5 + k)));
            args.push(Value::Int(0));
            run_function(g, &args, &mut mem).unwrap();
            (mem.read_i64("A", 0), mem.read_i64("A", 1))
        };
        assert_eq!(exec(&scalar), exec(&f));
    }
}
