//! Multi-node formation (paper §4.2, Listing 4 "coarsening mode").
//!
//! When the graph builder reaches a group of commutative instructions, LSLP
//! does not immediately recurse into the two operands. Instead it *coarsens*:
//! per lane, it chases operands that are instructions of the *same* opcode,
//! absorbing them into the lane's chain, as long as their intermediate values
//! do not escape the chain (single use). The chain's remaining operands form
//! the multi-node frontier, which is reordered as one unit.

use lslp_ir::hash::HashMap;
use lslp_ir::{Function, Opcode, UseMap, ValueId};

/// One lane of a multi-node: the chain instructions (root first, in
/// discovery order) and the frontier operands they expose.
#[derive(Clone, Debug)]
pub struct LaneChain {
    /// Chain member instructions; `insts[0]` is the lane's root.
    pub insts: Vec<ValueId>,
    /// Frontier operands in discovery order; always `insts.len() + 1` long.
    pub operands: Vec<ValueId>,
}

/// Whether `cand` may be absorbed into a chain of `op` instructions.
fn absorbable(
    f: &Function,
    use_map: &UseMap,
    in_tree: &HashMap<ValueId, usize>,
    root: ValueId,
    cand: ValueId,
) -> bool {
    let Some(inst) = f.inst(cand) else { return false };
    let Some(root_inst) = f.inst(root) else { return false };
    inst.op == root_inst.op
        && inst.ty == root_inst.ty
        // The intermediate value must not escape the multi-node: its only
        // use is its chain parent (Listing 4, line 14).
        && use_map.num_uses(cand) == 1
        // Values already grouped elsewhere in the SLP graph stay there.
        && !in_tree.contains_key(&cand)
}

/// Grow one lane's chain from `root`, absorbing at most `max_insts`
/// same-opcode instructions (breadth-first, operand order).
///
/// With `max_insts == 1` this degenerates to the vanilla single-instruction
/// group: `insts = [root]`, `operands = root's two operands`.
pub fn build_lane_chain(
    f: &Function,
    use_map: &UseMap,
    in_tree: &HashMap<ValueId, usize>,
    root: ValueId,
    max_insts: usize,
) -> LaneChain {
    debug_assert!(max_insts >= 1);
    let mut insts = vec![root];
    let mut operands: Vec<ValueId> = Vec::new();
    // Worklist of frontier operands to classify, kept in breadth-first
    // discovery order so equal `max_insts` caps yield isomorphic shapes
    // across lanes.
    let mut queue: Vec<ValueId> = f.args_of(root).to_vec();
    let mut qi = 0;
    while qi < queue.len() {
        let cand = queue[qi];
        qi += 1;
        if insts.len() < max_insts && absorbable(f, use_map, in_tree, root, cand) {
            insts.push(cand);
            queue.extend_from_slice(f.args_of(cand));
        } else {
            operands.push(cand);
        }
    }
    debug_assert_eq!(operands.len(), insts.len() + 1);
    LaneChain { insts, operands }
}

/// The maximum chain size reachable from `root` (unbounded growth), used to
/// equalize chain sizes across lanes before the real formation pass.
pub fn max_chain_insts(
    f: &Function,
    use_map: &UseMap,
    in_tree: &HashMap<ValueId, usize>,
    root: ValueId,
) -> usize {
    build_lane_chain(f, use_map, in_tree, root, usize::MAX).insts.len()
}

/// Form the multi-node for a bundle of commutative roots (one per lane).
///
/// All lanes are grown to the *same* number of chain instructions — the
/// minimum of each lane's maximal chain and the configured cap — so the
/// frontier operand lists line up into the `operands × lanes` matrix that
/// the reordering pass consumes. Requires the opcode to be associative
/// under the active fast-math setting when the chain is longer than one
/// instruction (re-parenthesization happens at codegen).
pub fn form_multinode(
    f: &Function,
    use_map: &UseMap,
    in_tree: &HashMap<ValueId, usize>,
    roots: &[ValueId],
    op: Opcode,
    max_insts: usize,
    fast_math: bool,
) -> Vec<LaneChain> {
    let cap = if op.is_associative(fast_math) { max_insts.max(1) } else { 1 };
    let k =
        roots.iter().map(|&r| max_chain_insts(f, use_map, in_tree, r)).min().unwrap_or(1).min(cap);
    roots
        .iter()
        .map(|&r| {
            let chain = build_lane_chain(f, use_map, in_tree, r, k);
            debug_assert_eq!(chain.insts.len(), k);
            chain
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    /// Builds `(((a & b) & c) & d)` and returns (f, root, leaves).
    fn chain4() -> (Function, ValueId, [ValueId; 4]) {
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::I64);
        let b_ = f.add_param("b", Type::I64);
        let c = f.add_param("c", Type::I64);
        let d = f.add_param("d", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let ab = b.and(a, b_);
        let abc = b.and(ab, c);
        let root = b.and(abc, d);
        // Keep the root alive through a store so the use counts are real.
        let p = b.func().add_param("P", Type::PTR);
        b.store(root, p);
        (f, root, [a, b_, c, d])
    }

    #[test]
    fn unbounded_chain_absorbs_whole_tree() {
        let (f, root, leaves) = chain4();
        let um = f.use_map();
        let chain = build_lane_chain(&f, &um, &HashMap::default(), root, usize::MAX);
        assert_eq!(chain.insts.len(), 3);
        assert_eq!(chain.operands.len(), 4);
        for l in leaves {
            assert!(chain.operands.contains(&l), "missing leaf {l}");
        }
    }

    #[test]
    fn cap_one_is_vanilla() {
        let (f, root, _) = chain4();
        let um = f.use_map();
        let chain = build_lane_chain(&f, &um, &HashMap::default(), root, 1);
        assert_eq!(chain.insts, vec![root]);
        assert_eq!(chain.operands.len(), 2);
    }

    #[test]
    fn cap_two_stops_early() {
        let (f, root, _) = chain4();
        let um = f.use_map();
        let chain = build_lane_chain(&f, &um, &HashMap::default(), root, 2);
        assert_eq!(chain.insts.len(), 2);
        assert_eq!(chain.operands.len(), 3);
    }

    #[test]
    fn escaping_value_is_not_absorbed() {
        // abc has a second use, so it must stay a frontier operand.
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::I64);
        let b_ = f.add_param("b", Type::I64);
        let c = f.add_param("c", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let q = f.add_param("Q", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let ab = b.and(a, b_);
        let root = b.and(ab, c);
        b.store(root, p);
        b.store(ab, q); // ab escapes
        let um = f.use_map();
        let chain = build_lane_chain(&f, &um, &HashMap::default(), root, usize::MAX);
        assert_eq!(chain.insts, vec![root]);
        assert!(chain.operands.contains(&ab));
    }

    #[test]
    fn opcode_boundary_stops_chain() {
        // and(or(a,b), c): the `or` is a frontier operand, not a chain member.
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::I64);
        let b_ = f.add_param("b", Type::I64);
        let c = f.add_param("c", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let o = b.or(a, b_);
        let root = b.and(o, c);
        b.store(root, p);
        let um = f.use_map();
        let chain = build_lane_chain(&f, &um, &HashMap::default(), root, usize::MAX);
        assert_eq!(chain.insts, vec![root]);
        assert_eq!(chain.operands, vec![o, c]);
    }

    #[test]
    fn in_tree_values_are_frontier() {
        let (f, root, _) = chain4();
        let um = f.use_map();
        // Mark the first inner `and` as already claimed by the graph.
        let inner = f.args_of(root)[0];
        let mut in_tree = HashMap::default();
        in_tree.insert(inner, 0usize);
        let chain = build_lane_chain(&f, &um, &in_tree, root, usize::MAX);
        assert_eq!(chain.insts, vec![root]);
        assert!(chain.operands.contains(&inner));
    }

    #[test]
    fn lanes_equalized_to_min_chain() {
        // Lane 0 has a 3-deep chain; lane 1 has a 2-deep chain: both get 2.
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let x1 = b.and(a, a);
        let x2 = b.and(x1, a);
        let r0 = b.and(x2, a); // chain of 3
        let y1 = b.and(a, a);
        let r1 = b.and(y1, a); // chain of 2
        b.store(r0, p);
        b.store(r1, p);
        let um = f.use_map();
        let chains =
            form_multinode(&f, &um, &HashMap::default(), &[r0, r1], Opcode::And, usize::MAX, true);
        assert_eq!(chains[0].insts.len(), 2);
        assert_eq!(chains[1].insts.len(), 2);
        assert_eq!(chains[0].operands.len(), 3);
        assert_eq!(chains[1].operands.len(), 3);
    }

    #[test]
    fn fp_chains_require_fast_math() {
        let mut f = Function::new("t");
        let a = f.add_param("a", Type::F64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let x1 = b.fadd(a, a);
        let r = b.fadd(x1, a);
        b.store(r, p);
        let um = f.use_map();
        let strict = form_multinode(&f, &um, &HashMap::default(), &[r], Opcode::FAdd, 8, false);
        assert_eq!(strict[0].insts.len(), 1, "no FP reassociation without fast-math");
        let fast = form_multinode(&f, &um, &HashMap::default(), &[r], Opcode::FAdd, 8, true);
        assert_eq!(fast[0].insts.len(), 2);
    }
}
