//! Vector code generation (paper §2.2, steps 6–7).
//!
//! Each vectorizable graph node becomes one vector instruction (a chain of
//! them for multi-nodes), emitted at the body position of the node's last
//! member (first member for hoisted loads). Gather leaves become constant
//! vectors or `insertelement` chains placed just before their user. Scalar
//! seed stores are deleted; every other scalar is left in place — external
//! uses after the vector instruction are rewired to `extractelement`s and
//! the dead remainder is swept by [`crate::dce`].
//!
//! This "natural liveness" strategy keeps code generation trivially sound:
//! the vector code is inserted *alongside* the scalar code, uses migrate
//! only where the vector value dominates them, and DCE reclaims whatever
//! became unreachable.
//!
//! New instructions are created outside the body and spliced in after
//! their anchor (the member whose position they take) one by one, and the
//! seed stores are removed one by one, so a tree's commit edits and logs
//! only its own instructions: O(tree), not O(body).

use std::rc::Rc;

use lslp_analysis::{AnalysisManager, PositionMap};
use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{Constant, Function, InstAttr, Opcode, Type, ValueId};
use lslp_target::TargetSpec;

use crate::graph::{NodeId, NodeKind, Placement, SlpGraph};

/// Statistics from one code generation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CodegenStats {
    /// Vector instructions emitted (loads, stores, ALU, shuffles, inserts).
    pub vector_insts: usize,
    /// Extract instructions emitted for external users.
    pub extracts: usize,
    /// Scalar stores deleted (replaced by vector stores).
    pub stores_deleted: usize,
}

struct Codegen<'a> {
    f: &'a mut Function,
    graph: &'a SlpGraph,
    tm: &'a TargetSpec,
    positions: Rc<PositionMap>,
    /// Original uses snapshot (before any new instruction was pushed).
    uses: Rc<lslp_ir::UseMap>,
    /// New instructions to splice in right after each anchor, an original
    /// body instruction.
    queued: HashMap<ValueId, Vec<ValueId>>,
    vec_vals: HashMap<NodeId, ValueId>,
    /// The anchor each emitted node was placed after.
    emit_pos: HashMap<NodeId, ValueId>,
    dead_stores: HashSet<ValueId>,
    stats: CodegenStats,
}

impl<'a> Codegen<'a> {
    fn queue(&mut self, at: ValueId, inst: ValueId) {
        self.queued.entry(at).or_default().push(inst);
    }

    fn key(&self, v: ValueId) -> u64 {
        self.positions.key(v).expect("graph members are in the body")
    }

    /// The node's first and last members in body order.
    fn member_pos(&self, node: NodeId) -> (ValueId, ValueId) {
        let scalars = &self.graph.node(node).scalars;
        let first = *scalars.iter().min_by_key(|&&s| self.key(s)).expect("nodes have lanes");
        let last = *scalars.iter().max_by_key(|&&s| self.key(s)).expect("nodes have lanes");
        (first, last)
    }

    fn vec_ty(&self, node: NodeId) -> Type {
        let n = self.graph.node(node);
        let lane0 = n.scalars[0];
        let scalar_ty = match self.f.opcode(lane0) {
            Some(Opcode::Store) => self.f.ty(self.f.args_of(lane0)[0]),
            _ => self.f.ty(lane0),
        };
        scalar_ty.with_lanes(n.lanes() as u32)
    }

    /// Emit the vector value of `node`, and everything it depends on.
    /// `gather_at` is the anchor of the node's user (a gather must be
    /// placed before it).
    fn emit(&mut self, node: NodeId, gather_at: ValueId) -> ValueId {
        if let Some(&v) = self.vec_vals.get(&node) {
            return v;
        }
        let kind = self.graph.node(node).kind.clone();
        let scalars = self.graph.node(node).scalars.clone();
        let lanes = scalars.len() as u32;
        let val = match kind {
            NodeKind::Load { placement } => {
                let (lo, hi) = self.member_pos(node);
                let at = match placement {
                    Placement::Sink => hi,
                    Placement::Hoist => lo,
                };
                let ty = self.vec_ty(node);
                let ptr = self.f.args_of(scalars[0])[0];
                let v = self.f.create(Opcode::Load, ty, vec![ptr], InstAttr::None);
                self.stats.vector_insts += 1;
                self.queue(at, v);
                self.emit_pos.insert(node, at);
                v
            }
            NodeKind::Store => {
                let (_, hi) = self.member_pos(node);
                let child = self.graph.node(node).operands[0];
                let val = self.emit(child, hi);
                let elem = self.vec_ty(node).elem().expect("store lanes have data types");
                let max = self.tm.max_vf(elem) as usize;
                let n_lanes = lanes as usize;
                let v = if n_lanes > max {
                    // The target cannot hold the bundle in one register:
                    // legalize by splitting into register-sized chunk
                    // stores, each fed by a shuffle extracting its lanes.
                    let mut last = val;
                    let mut start = 0;
                    while start < n_lanes {
                        let chunk = max.min(n_lanes - start);
                        let mask: Vec<u32> = (start..start + chunk).map(|l| l as u32).collect();
                        let chunk_ty = Type::Scalar(elem).with_lanes(chunk as u32);
                        let part = self.f.create(
                            Opcode::ShuffleVector,
                            chunk_ty,
                            vec![val, val],
                            InstAttr::Mask(mask),
                        );
                        self.queue(hi, part);
                        let ptr = self.f.args_of(scalars[start])[1];
                        last = self.f.create(
                            Opcode::Store,
                            Type::Void,
                            vec![part, ptr],
                            InstAttr::None,
                        );
                        self.queue(hi, last);
                        self.stats.vector_insts += 2;
                        start += chunk;
                    }
                    last
                } else {
                    let ptr = self.f.args_of(scalars[0])[1];
                    let v =
                        self.f.create(Opcode::Store, Type::Void, vec![val, ptr], InstAttr::None);
                    self.stats.vector_insts += 1;
                    self.queue(hi, v);
                    v
                };
                self.emit_pos.insert(node, hi);
                for &s in &scalars {
                    self.dead_stores.insert(s);
                }
                self.stats.stores_deleted += scalars.len();
                v
            }
            NodeKind::Vector { op } => {
                let (_, hi) = self.member_pos(node);
                let children = self.graph.node(node).operands.clone();
                let args: Vec<ValueId> = children.iter().map(|&c| self.emit(c, hi)).collect();
                let ty = self.vec_ty(node);
                let attr = self.f.inst(scalars[0]).expect("member").attr.clone();
                let v = self.f.create(op, ty, args, attr);
                self.stats.vector_insts += 1;
                self.queue(hi, v);
                self.emit_pos.insert(node, hi);
                v
            }
            NodeKind::MultiNode { op, .. } => {
                let (_, hi) = self.member_pos(node);
                let children = self.graph.node(node).operands.clone();
                let cols: Vec<ValueId> = children.iter().map(|&c| self.emit(c, hi)).collect();
                let ty = self.vec_ty(node);
                // Re-associate: fold all frontier columns left-to-right.
                let mut acc = self.f.create(op, ty, vec![cols[0], cols[1]], InstAttr::None);
                self.stats.vector_insts += 1;
                self.queue(hi, acc);
                for &c in &cols[2..] {
                    acc = self.f.create(op, ty, vec![acc, c], InstAttr::None);
                    self.stats.vector_insts += 1;
                    self.queue(hi, acc);
                }
                self.emit_pos.insert(node, hi);
                acc
            }
            NodeKind::Gather { .. } => {
                // Place the gather after its latest instruction member.
                // Every lane member is an operand of the corresponding lane
                // of every parent, so max(member pos) strictly precedes
                // every parent's emission point — which keeps the gather
                // valid even when several parents share it. `gather_at` is
                // only a fallback for all-const/arg gathers.
                let at = scalars
                    .iter()
                    .filter(|&&s| self.f.is_inst(s))
                    .filter_map(|&s| Some((self.positions.key(s)?, s)))
                    .max()
                    .map_or(self.f.body()[0], |(_, s)| s);
                debug_assert!(
                    self.key(at) <= self.key(gather_at),
                    "gather member must dominate its users"
                );
                let v = self.emit_gather(&scalars, lanes, at);
                self.emit_pos.insert(node, at);
                v
            }
        };
        self.vec_vals.insert(node, val);
        val
    }

    fn emit_gather(&mut self, scalars: &[ValueId], lanes: u32, at: ValueId) -> ValueId {
        let elem = self.f.ty(scalars[0]).elem().expect("gather lanes have data types");
        // Base constant vector: constant lanes in place, zeros elsewhere.
        let base_lanes: Vec<Constant> = scalars
            .iter()
            .map(|&s| match self.f.as_const(s) {
                Some(c) => c.clone(),
                None => Constant::zero(elem),
            })
            .collect();
        let mut cur = self.f.constant(Constant::vector(base_lanes));
        let ty = Type::Scalar(elem).with_lanes(lanes);
        let non_const: Vec<(u32, ValueId)> = scalars
            .iter()
            .enumerate()
            .filter(|&(_, &s)| !self.f.is_const(s))
            .map(|(l, &s)| (l as u32, s))
            .collect();
        if non_const.is_empty() {
            return cur; // pure constant vector, no instructions
        }
        let splat = non_const.len() == lanes as usize
            && non_const.iter().all(|&(_, s)| s == non_const[0].1);
        if splat {
            // One insert plus a zero-lane broadcast shuffle.
            let lane0 = self.f.const_i64(0);
            cur = self.f.create(
                Opcode::InsertElement,
                ty,
                vec![cur, non_const[0].1, lane0],
                InstAttr::None,
            );
            self.queue(at, cur);
            let mask = vec![0u32; lanes as usize];
            cur = self.f.create(Opcode::ShuffleVector, ty, vec![cur, cur], InstAttr::Mask(mask));
            self.queue(at, cur);
            self.stats.vector_insts += 2;
        } else {
            for (lane, s) in non_const {
                let idx = self.f.const_i64(lane as i64);
                cur = self.f.create(Opcode::InsertElement, ty, vec![cur, s, idx], InstAttr::None);
                self.queue(at, cur);
                self.stats.vector_insts += 1;
            }
        }
        cur
    }

    /// Rewire external uses of vectorized scalars through extracts when the
    /// user is positioned after the node's vector instruction.
    fn rewire_external_uses(&mut self) {
        let mut per_scalar_extract: HashMap<ValueId, ValueId> = HashMap::default();
        // Deterministic order: walk nodes, then lanes.
        for (node_id, node) in self.graph.nodes().iter().enumerate() {
            if !node.is_vectorizable() {
                continue;
            }
            let Some(&node_pos) = self.emit_pos.get(&node_id) else { continue };
            let Some(&vec_val) = self.vec_vals.get(&node_id) else { continue };
            let node_key = self.key(node_pos);
            for (lane, &s) in node.scalars.iter().enumerate() {
                if self.f.ty(s).is_void() {
                    continue;
                }
                let uses: Vec<_> = self
                    .uses
                    .uses(s)
                    .iter()
                    .filter(|u| !self.graph.contains(u.user))
                    .filter(|u| self.positions.key(u.user).is_some_and(|p| p > node_key))
                    .copied()
                    .collect();
                if uses.is_empty() {
                    continue;
                }
                let ext = *per_scalar_extract.entry(s).or_insert_with(|| {
                    let elem = self.f.ty(s);
                    let idx = self.f.const_i64(lane as i64);
                    let e = self.f.create(
                        Opcode::ExtractElement,
                        elem,
                        vec![vec_val, idx],
                        InstAttr::None,
                    );
                    self.queue(node_pos, e);
                    self.stats.extracts += 1;
                    e
                });
                for u in uses {
                    if let Some(inst) = self.f.inst_mut(u.user) {
                        inst.args[u.index] = ext;
                    }
                }
            }
        }
    }

    /// Place the queued instructions after their anchors and remove the
    /// seed stores, one logged edit each. Anchors are visited from the
    /// back of the body, so each edit leaves the indices of the anchors
    /// still to come unchanged.
    fn splice(&mut self) {
        let body = self.f.body();
        let mut anchors: Vec<(usize, ValueId)> = self
            .queued
            .keys()
            .chain(&self.dead_stores)
            .map(|&v| (self.positions.index_in(body, v).expect("anchors are in the body"), v))
            .collect();
        anchors.sort_unstable();
        anchors.dedup();
        for &(at, anchor) in anchors.iter().rev() {
            for (k, inst) in self.queued.remove(&anchor).unwrap_or_default().into_iter().enumerate()
            {
                self.f.insert_value(at + 1 + k, inst);
            }
            if self.dead_stores.contains(&anchor) {
                self.f.remove_at(at);
            }
        }
    }
}

/// The result of materializing one graph as vector code.
#[derive(Clone, Debug)]
pub struct GeneratedTree {
    /// Emission statistics.
    pub stats: CodegenStats,
    /// The root node's vector value (`None` for store roots, which produce
    /// no value).
    pub root_value: Option<ValueId>,
}

/// Replace the scalars of `graph` with vector code inside `f`,
/// legalizing for target `tm` (seed stores wider than one of its
/// registers are split into chunk stores).
///
/// The graph must have been built against the *current* state of `f`
/// (positions are captured internally). Dead scalars are left for
/// [`crate::dce::run`].
pub fn generate(f: &mut Function, graph: &SlpGraph, tm: &TargetSpec) -> CodegenStats {
    generate_tree(f, graph, tm).stats
}

/// [`generate`], pulling the position/use maps from `am`'s cache instead
/// of recomputing them (the pass driver's hot path).
pub fn generate_with(
    f: &mut Function,
    graph: &SlpGraph,
    tm: &TargetSpec,
    am: &mut AnalysisManager,
) -> CodegenStats {
    generate_tree_with(f, graph, tm, am).stats
}

/// Like [`generate`], additionally returning the root's vector value so
/// callers (e.g. horizontal-reduction codegen) can consume it.
pub fn generate_tree(f: &mut Function, graph: &SlpGraph, tm: &TargetSpec) -> GeneratedTree {
    let positions = Rc::new(f.position_map());
    let uses = Rc::new(f.use_map());
    generate_tree_cached(f, graph, tm, positions, uses)
}

/// [`generate_tree`] with analyses supplied by the [`AnalysisManager`].
pub fn generate_tree_with(
    f: &mut Function,
    graph: &SlpGraph,
    tm: &TargetSpec,
    am: &mut AnalysisManager,
) -> GeneratedTree {
    let positions = am.positions(f);
    let uses = am.use_map(f);
    generate_tree_cached(f, graph, tm, positions, uses)
}

fn generate_tree_cached(
    f: &mut Function,
    graph: &SlpGraph,
    tm: &TargetSpec,
    positions: Rc<PositionMap>,
    uses: Rc<lslp_ir::UseMap>,
) -> GeneratedTree {
    let mut cg = Codegen {
        f,
        graph,
        tm,
        positions,
        uses,
        queued: HashMap::default(),
        vec_vals: HashMap::default(),
        emit_pos: HashMap::default(),
        dead_stores: HashSet::default(),
        stats: CodegenStats::default(),
    };
    let root = graph.root();
    let (_, root_hi) = cg.member_pos(root);
    let val = cg.emit(root, root_hi);
    cg.rewire_external_uses();
    cg.splice();
    let root_value = (!cg.f.ty(val).is_void()).then_some(val);
    GeneratedTree { stats: cg.stats, root_value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VectorizerConfig;
    use crate::graph::GraphBuilder;
    use lslp_analysis::AddrInfo;
    use lslp_ir::{verify_function, FunctionBuilder};

    fn vectorize(f: &mut Function, cfg: &VectorizerConfig, seeds: &[ValueId]) -> CodegenStats {
        vectorize_on(f, cfg, &TargetSpec::default(), seeds)
    }

    fn vectorize_on(
        f: &mut Function,
        cfg: &VectorizerConfig,
        tm: &TargetSpec,
        seeds: &[ValueId],
    ) -> CodegenStats {
        let addr = AddrInfo::analyze(f);
        let positions = f.position_map();
        let use_map = f.use_map();
        let graph = GraphBuilder::new(f, cfg, tm, &addr, &positions, &use_map).build(seeds);
        generate(f, &graph, tm)
    }

    fn simple_kernel() -> (Function, Vec<ValueId>) {
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
        (f, stores)
    }

    #[test]
    fn generated_code_verifies() {
        let (mut f, stores) = simple_kernel();
        let stats = vectorize(&mut f, &VectorizerConfig::slp(), &stores);
        verify_function(&f).expect("vectorized code must verify");
        assert_eq!(stats.stores_deleted, 2);
        assert_eq!(stats.extracts, 0);
        // vector store + vector add + 2 vector loads.
        assert_eq!(stats.vector_insts, 4);
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("load <2 x i64>"), "{text}");
        assert!(text.contains("store <2 x i64>"), "{text}");
    }

    #[test]
    fn dce_sweeps_dead_scalars_afterwards() {
        let (mut f, stores) = simple_kernel();
        let before = f.body_len();
        vectorize(&mut f, &VectorizerConfig::slp(), &stores);
        crate::dce::run(&mut f);
        verify_function(&f).expect("post-DCE code must verify");
        // 2 geps + vload ×2, vadd, 2 geps? — lane-0 geps for A survive; all
        // scalar loads/adds/stores are gone. The exact count: 4 vector insts
        // + 3 live geps (B, C, A lane 0) + 1 lane-0 idx add = 8.
        let after = f.body_len();
        assert!(after < before, "DCE must shrink the body ({before} -> {after})");
        let text = lslp_ir::print_function(&f);
        assert!(!text.contains("load i64"), "scalar loads must be gone:\n{text}");
    }

    #[test]
    fn hoisted_load_placement_is_correct() {
        // A[i] = A[i] + 1; A[i+1] = A[i+1] + 1 — needs hoist placement.
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let one = b.func().const_i64(1);
            let idx = b.add(i, off);
            let ga = b.gep(pa, idx, 8);
            let l = b.load(Type::I64, ga);
            let v = b.add(l, one);
            stores.push(b.store(v, ga));
        }
        vectorize(&mut f, &VectorizerConfig::lslp(), &stores);
        verify_function(&f).expect("hoisted code must verify");
        let text = lslp_ir::print_function(&f);
        // The vector load must appear before the (deleted) first store's
        // position — i.e. before the vector store.
        let vload = text.find("load <2 x i64>").expect("vector load");
        let vstore = text.find("store <2 x i64>").expect("vector store");
        assert!(vload < vstore, "{text}");
    }

    #[test]
    fn gather_of_mixed_lanes_inserts() {
        // A[i+o] = x ^ B[i+o]: operand slot holds [x, x] (splat arg).
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let v = b.xor(x, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(v, ga));
        }
        vectorize(&mut f, &VectorizerConfig::lslp(), &stores);
        verify_function(&f).unwrap();
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("insertelement"), "{text}");
        assert!(text.contains("shufflevector"), "splat should broadcast:\n{text}");
    }

    #[test]
    fn external_user_reads_through_extract() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
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
            let s = b.add(lb, lb);
            sum0.get_or_insert(s);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        {
            let mut b = FunctionBuilder::new(&mut f);
            let gx = b.gep(px, i, 8);
            b.store(sum0.unwrap(), gx);
        }
        let stats = vectorize(&mut f, &VectorizerConfig::lslp(), &stores);
        verify_function(&f).unwrap();
        assert_eq!(stats.extracts, 1);
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("extractelement"), "{text}");
    }

    #[test]
    fn multinode_codegen_folds_chain() {
        // A[i+o] = B[i+o] & C[i+o] & D[i+o]: 2-instruction chain per lane.
        let mut f = Function::new("k");
        let arrays: Vec<ValueId> =
            ["A", "B", "C", "D"].iter().map(|n| f.add_param(*n, Type::PTR)).collect();
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let mut loads = Vec::new();
            for &arr in &arrays[1..] {
                let p = b.gep(arr, idx, 8);
                loads.push(b.load(Type::I64, p));
            }
            let inner = b.and(loads[0], loads[1]);
            let outer = b.and(inner, loads[2]);
            let ga = b.gep(arrays[0], idx, 8);
            stores.push(b.store(outer, ga));
        }
        vectorize(&mut f, &VectorizerConfig::lslp(), &stores);
        crate::dce::run(&mut f);
        verify_function(&f).unwrap();
        let text = lslp_ir::print_function(&f);
        let ands = text.matches("and <2 x i64>").count();
        assert_eq!(ands, 2, "chain of 2 folds into 2 vector ands:\n{text}");
        assert_eq!(text.matches("load <2 x i64>").count(), 3, "{text}");
    }
}

#[cfg(test)]
mod cmp_select_tests {
    use super::*;
    use crate::config::VectorizerConfig;
    use crate::graph::GraphBuilder;
    use lslp_analysis::AddrInfo;
    use lslp_ir::{verify_function, FunctionBuilder, IntPred, ScalarType};

    fn vectorize(f: &mut Function, seeds: &[ValueId]) {
        let cfg = VectorizerConfig::lslp();
        let tm = TargetSpec::default();
        let addr = AddrInfo::analyze(f);
        let positions = f.position_map();
        let use_map = f.use_map();
        let graph = GraphBuilder::new(f, &cfg, &tm, &addr, &positions, &use_map).build(seeds);
        generate(f, &graph, &tm);
    }

    /// `A[i+o] = max(B[i+o], C[i+o])` via icmp+select, 4 lanes.
    #[test]
    fn cmp_select_lanes_vectorize() {
        let mut f = Function::new("vmax");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..4i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let gc = b.gep(pc, idx, 8);
            let lc = b.load(Type::I64, gc);
            let c = b.icmp(IntPred::Sgt, lb, lc);
            let m = b.select(c, lb, lc);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(m, ga));
        }
        vectorize(&mut f, &stores);
        crate::dce::run(&mut f);
        verify_function(&f).unwrap();
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("icmp sgt <4 x i64>"), "{text}");
        assert!(text.contains("select <4 x i64>"), "{text}");
        assert!(!text.contains("select i64"), "scalars must be gone:\n{text}");
    }

    /// Mixed predicates must not group.
    #[test]
    fn mismatched_predicates_gather() {
        let mut f = Function::new("mixed");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            let lb = b.load(Type::I64, gb);
            let pred = if o == 0 { IntPred::Sgt } else { IntPred::Slt };
            let zero = b.func().const_i64(0);
            let c = b.icmp(pred, lb, zero);
            let one = b.func().const_i64(1);
            let m = b.select(c, lb, one);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(m, ga));
        }
        let cfg = VectorizerConfig::lslp();
        let tm = TargetSpec::default();
        let addr = AddrInfo::analyze(&f);
        let positions = f.position_map();
        let use_map = f.use_map();
        let graph = GraphBuilder::new(&f, &cfg, &tm, &addr, &positions, &use_map).build(&stores);
        let gathers = graph.nodes().iter().filter(|n| !n.is_vectorizable()).count();
        assert!(gathers > 0, "differing predicates cannot form a group:\n{}", graph.dump(&f));
    }

    /// i16 elements pack 16 lanes into 256 bits end to end.
    #[test]
    fn narrow_integers_use_wide_vectors() {
        let mut f = Function::new("i16x16");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let ty16 = Type::Scalar(ScalarType::I16);
        let mut stores = Vec::new();
        for o in 0..16i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 2);
            let lb = b.load(ty16, gb);
            let s = b.add(lb, lb);
            let ga = b.gep(pa, idx, 2);
            stores.push(b.store(s, ga));
        }
        vectorize(&mut f, &stores);
        verify_function(&f).unwrap();
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("<16 x i16>"), "{text}");
    }

    /// A seed store chain wider than the target's registers is legalized
    /// by splitting into chunk stores the target can hold.
    #[test]
    fn over_wide_store_splits_into_register_chunks() {
        let mut f = Function::new("wide");
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
        // sse4.2 holds two i64 lanes: the 4-lane seed store must become
        // two shuffle+store pairs of <2 x i64>.
        let cfg = VectorizerConfig::lslp();
        let sse = lslp_target::TargetSpec::sse42();
        vectorize_on_target(&mut f, &cfg, &sse, &stores);
        verify_function(&f).unwrap();
        let text = lslp_ir::print_function(&f);
        assert_eq!(text.matches("store <2 x i64>").count(), 2, "{text}");
        assert_eq!(text.matches("shufflevector").count(), 2, "{text}");
        assert!(!text.contains("store <4 x i64>"), "{text}");
    }

    fn vectorize_on_target(
        f: &mut Function,
        cfg: &VectorizerConfig,
        tm: &lslp_target::TargetSpec,
        seeds: &[ValueId],
    ) {
        let addr = AddrInfo::analyze(f);
        let positions = f.position_map();
        let use_map = f.use_map();
        let graph = GraphBuilder::new(f, cfg, tm, &addr, &positions, &use_map).build(seeds);
        generate(f, &graph, tm);
    }
}
