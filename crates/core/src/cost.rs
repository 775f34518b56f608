//! Graph cost evaluation (paper §2.2 step 4, constants from §3.1).
//!
//! The cost of the tree is the sum over nodes of
//! `VectorCost − ScalarCost` (negative is better), plus the cost of
//! gathering non-vectorizable operands into vector registers, plus one
//! extract per vectorized scalar that has a user outside the tree.

use lslp_ir::hash::HashSet;
use lslp_ir::{Function, Opcode, UseMap, ValueId};
use lslp_target::CostModel;

use crate::graph::{Node, NodeId, NodeKind, SlpGraph};

/// Cost breakdown for one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostReport {
    /// Per-node cost, indexed by [`NodeId`].
    pub per_node: Vec<i64>,
    /// Total cost of extracts for externally-used vectorized scalars.
    pub extract_cost: i64,
    /// Grand total: `sum(per_node) + extract_cost`.
    pub total: i64,
}

fn elem_of(f: &Function, node: &Node) -> lslp_ir::ScalarType {
    let v = node.scalars[0];
    let ty = match f.opcode(v) {
        Some(Opcode::Store) => f.ty(f.args_of(v)[0]),
        _ => f.ty(v),
    };
    ty.elem().unwrap_or(lslp_ir::ScalarType::I64)
}

fn node_cost(f: &Function, node: &Node, tm: &CostModel) -> i64 {
    let lanes = node.lanes() as i64;
    let elem = elem_of(f, node);
    match &node.kind {
        NodeKind::Vector { op } => {
            tm.vector_cost(*op, elem, lanes as u32) - lanes * tm.scalar_cost(*op)
        }
        NodeKind::MultiNode { op, chains } => {
            let k = chains[0].insts.len() as i64;
            k * (tm.vector_cost(*op, elem, lanes as u32) - lanes * tm.scalar_cost(*op))
        }
        NodeKind::Load { .. } => {
            tm.vector_cost(Opcode::Load, elem, lanes as u32) - lanes * tm.scalar_cost(Opcode::Load)
        }
        NodeKind::Store => {
            // An over-wide seed store is legalized by splitting: each
            // register-sized chunk also pays the shuffle that extracts its
            // lanes (codegen emits one shuffle per chunk store).
            let chunks = tm.registers_for(elem, lanes as u32);
            let split_shuffles = if chunks > 1 { chunks * tm.shuffle_cost } else { 0 };
            tm.vector_cost(Opcode::Store, elem, lanes as u32) + split_shuffles
                - lanes * tm.scalar_cost(Opcode::Store)
        }
        NodeKind::Gather { .. } => {
            let any_non_const = node.scalars.iter().any(|&s| !f.is_const(s));
            let splat = any_non_const && node.scalars.iter().all(|&s| s == node.scalars[0]);
            tm.gather_cost(node.lanes() as u32, any_non_const, splat)
        }
    }
}

/// Whether vectorized scalar `s` has any user outside the tree (including
/// membership in a *gather* node of the same tree, which keeps the scalar
/// alive). Users in `doomed` are ignored: they are known to be deleted by
/// the caller (e.g. a reduction chain being replaced).
fn has_external_use(
    graph: &SlpGraph,
    use_map: &UseMap,
    s: ValueId,
    doomed: &HashSet<ValueId>,
) -> bool {
    use_map.uses(s).iter().any(|u| !graph.contains(u.user) && !doomed.contains(&u.user))
}

/// Compute the cost report for a graph over the current function state.
///
/// `use_map` must be a fresh [`Function::use_map`] snapshot.
pub fn graph_cost(f: &Function, graph: &SlpGraph, tm: &CostModel, use_map: &UseMap) -> CostReport {
    graph_cost_excluding(f, graph, tm, use_map, &HashSet::default())
}

/// Like [`graph_cost`], but uses by the `doomed` instructions do not count
/// as external (the caller guarantees their deletion — used by
/// [`crate::reduce`], whose scalar chain is replaced wholesale).
pub fn graph_cost_excluding(
    f: &Function,
    graph: &SlpGraph,
    tm: &CostModel,
    use_map: &UseMap,
    doomed: &HashSet<ValueId>,
) -> CostReport {
    let per_node: Vec<i64> = graph.nodes().iter().map(|n| node_cost(f, n, tm)).collect();
    // Nodes detached by throttling cuts contribute nothing: they are never
    // emitted.
    let reach = graph.reachable();

    let mut extract_cost = 0;
    // Scalars referenced by reachable gather nodes stay alive; treat those
    // references as external uses of the vectorized value.
    let mut gathered: HashSet<ValueId> = HashSet::default();
    for (id, n) in graph.nodes().iter().enumerate() {
        if reach[id] {
            if let NodeKind::Gather { .. } = n.kind {
                gathered.extend(n.scalars.iter().copied());
            }
        }
    }
    for (s, _node) in graph.vectorized_scalars() {
        if f.ty(s).is_void() {
            continue; // stores have no users
        }
        if has_external_use(graph, use_map, s, doomed) || gathered.contains(&s) {
            extract_cost += tm.extract_for_external_use();
        }
    }
    let total =
        per_node.iter().enumerate().filter(|&(id, _)| reach[id]).map(|(_, &c)| c).sum::<i64>()
            + extract_cost;
    CostReport { per_node, extract_cost, total }
}

/// Alias of [`graph_cost`] emphasizing that detached (throttled) subtrees
/// are excluded from the total.
pub fn graph_cost_reachable(
    f: &Function,
    graph: &SlpGraph,
    tm: &CostModel,
    use_map: &UseMap,
) -> CostReport {
    graph_cost(f, graph, tm, use_map)
}

/// Convenience: the per-node cost of a single node (used in graph dumps).
pub fn single_node_cost(f: &Function, graph: &SlpGraph, id: NodeId, tm: &CostModel) -> i64 {
    node_cost(f, graph.node(id), tm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VectorizerConfig;
    use crate::graph::GraphBuilder;
    use lslp_analysis::AddrInfo;
    use lslp_ir::{FunctionBuilder, Type};

    fn graph_for(f: &Function, cfg: &VectorizerConfig, seeds: &[ValueId]) -> SlpGraph {
        let tm = CostModel::default();
        let addr = AddrInfo::analyze(f);
        let positions = f.position_map();
        let use_map = f.use_map();
        GraphBuilder::new(f, cfg, &tm, &addr, &positions, &use_map).build(seeds)
    }

    /// `A[i+o] = B[i+o] + C[i+o]` for two lanes: store −1, add −1, two load
    /// nodes −1 each → total −4.
    #[test]
    fn fully_vectorizable_two_lane_cost() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let gc = b.gep(pc, idx, 8);
            let lc = b.load(Type::I64, gc);
            let s = b.add(lb, lc);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        let g = graph_for(&f, &VectorizerConfig::slp(), &stores);
        let um = f.use_map();
        let report = graph_cost(&f, &g, &CostModel::skylake_avx2(), &um);
        assert_eq!(report.total, -4, "{}", g.dump(&f));
        assert_eq!(report.extract_cost, 0);
    }

    /// A constant-only operand bundle costs 0; a mixed bundle costs +lanes.
    #[test]
    fn gather_costs_follow_paper() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let c = b.func().const_i64(10 + o);
            let idx = b.add(i, off);
            // shl by a constant: operand slot 1 is all-constant (cost 0);
            // operand slot 0 is the argument x in both lanes (a splat).
            let v = b.shl(x, c);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(v, ga));
        }
        let g = graph_for(&f, &VectorizerConfig::slp(), &stores);
        let um = f.use_map();
        let report = graph_cost(&f, &g, &CostModel::skylake_avx2(), &um);
        // store -1, shl -1, const gather 0, splat gather +1 → -1.
        assert_eq!(report.total, -1, "{}", g.dump(&f));
    }

    #[test]
    fn external_use_charges_extract() {
        // The add feeding the stores is also stored scalarly elsewhere via a
        // second (non-consecutive) store, which stays outside the tree.
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let px = f.add_param("X", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        let mut sum0 = None;
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let gc = b.gep(pc, idx, 8);
            let lc = b.load(Type::I64, gc);
            let s = b.add(lb, lc);
            sum0.get_or_insert(s);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        // External scalar user of lane 0's add.
        {
            let mut b = FunctionBuilder::new(&mut f);
            let gx = b.gep(px, i, 8);
            b.store(sum0.unwrap(), gx);
        }
        let g = graph_for(&f, &VectorizerConfig::slp(), &stores);
        let um = f.use_map();
        let report = graph_cost(&f, &g, &CostModel::skylake_avx2(), &um);
        assert_eq!(report.extract_cost, 1, "{}", g.dump(&f));
        assert_eq!(report.total, -3);
    }

    #[test]
    fn four_lane_costs_scale() {
        let mut f = Function::new("k");
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
            let s = b.mul(lb, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        let g = graph_for(&f, &VectorizerConfig::slp(), &stores);
        let um = f.use_map();
        let report = graph_cost(&f, &g, &CostModel::skylake_avx2(), &um);
        // store (1-4) + mul (1-4) + load (1-4): total -9. The mul's two
        // operand slots dedupe onto one load node via the bundle cache.
        assert_eq!(report.total, -9, "{}", g.dump(&f));
    }
}
