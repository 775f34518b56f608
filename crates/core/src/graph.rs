//! The (L)SLP vectorization graph (paper §2.3 and §4.2, Listings 3–4).
//!
//! The graph is built bottom-up from a bundle of seed stores: each node
//! groups one scalar per lane. Vectorizable groups recurse into their
//! operands (after reordering, when commutative); anything that cannot be
//! grouped becomes a *gather* leaf that carries the cost of assembling a
//! vector from scalars.
//!
//! LSLP's deviation from vanilla SLP is confined to the commutative case:
//! instead of recursing directly into the two operands, chained commutative
//! instructions of the same opcode are coarsened into a [`NodeKind::MultiNode`]
//! whose whole operand frontier is reordered at once.

use std::fmt;

pub use lslp_analysis::Placement;
use lslp_analysis::{bundle_schedulable, load_placement, AddrInfo};
use lslp_ir::hash::HashMap;
use lslp_ir::{Function, Opcode, PositionMap, UseMap, ValueId};
use lslp_target::TargetSpec;

use crate::config::VectorizerConfig;
use crate::multinode::{form_multinode, LaneChain};
use crate::reorder::reorder_operands;

/// Index of a node within its [`SlpGraph`].
pub type NodeId = usize;

/// Why a bundle ended up as a gather leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GatherReason {
    /// A lane holds a constant or argument rather than an instruction.
    NonInstruction,
    /// The same instruction appears in more than one lane (splats included).
    Duplicates,
    /// Some lane's instruction already belongs to another graph node.
    AlreadyInTree,
    /// Lanes disagree on opcode, type, or immediate attribute.
    OpcodeMismatch,
    /// The common opcode has no vector form we exploit (e.g. `gep`).
    UnvectorizableOpcode,
    /// Loads are not consecutive in lane order.
    NotConsecutiveLoads,
    /// The bundle cannot be scheduled as one vector instruction.
    NotSchedulable,
    /// Recursion depth limit reached.
    DepthLimit,
    /// Demoted by graph throttling (`lslp::throttle`): vectorizing this
    /// subtree costs more than gathering its roots.
    Throttled,
    /// The node-count fuel budget ([`VectorizerConfig::max_graph_nodes`])
    /// ran out; the rest of the subtree is conservatively gathered.
    NodeBudget,
    /// The group is wider than the selected target's registers can hold
    /// (more lanes than [`lslp_target::TargetSpec::max_vf`] for the
    /// element type). Seed stores are exempt — codegen legalizes those by
    /// splitting — but interior groups are gathered.
    ExceedsTargetWidth,
}

impl fmt::Display for GatherReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GatherReason::NonInstruction => "non-instruction lanes",
            GatherReason::Duplicates => "duplicate lanes",
            GatherReason::AlreadyInTree => "lanes already in tree",
            GatherReason::OpcodeMismatch => "opcode/type mismatch",
            GatherReason::UnvectorizableOpcode => "unvectorizable opcode",
            GatherReason::NotConsecutiveLoads => "non-consecutive loads",
            GatherReason::NotSchedulable => "not schedulable",
            GatherReason::DepthLimit => "depth limit",
            GatherReason::Throttled => "throttled",
            GatherReason::NodeBudget => "node budget exhausted",
            GatherReason::ExceedsTargetWidth => "exceeds target register width",
        };
        f.write_str(s)
    }
}

/// The payload of a graph node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// A vectorizable group of isomorphic instructions (ALU, compare,
    /// select).
    Vector {
        /// The common opcode.
        op: Opcode,
    },
    /// A multi-node: per-lane chains of commutative instructions with the
    /// same opcode, reordered and vectorized as one unit (LSLP, §4.2).
    MultiNode {
        /// The common opcode.
        op: Opcode,
        /// Per-lane chains; all the same length.
        chains: Vec<LaneChain>,
    },
    /// A vectorizable group of consecutive loads.
    Load {
        /// Emission placement (see [`Placement`]).
        placement: Placement,
    },
    /// A vectorizable group of consecutive stores (the seed / root node).
    Store,
    /// A non-vectorizable leaf: the lanes are assembled into a vector with
    /// insert instructions.
    Gather {
        /// Why grouping failed.
        reason: GatherReason,
    },
}

/// One node of the SLP graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// One scalar per lane. For multi-nodes these are the per-lane chain
    /// roots.
    pub scalars: Vec<ValueId>,
    /// Node payload.
    pub kind: NodeKind,
    /// Operand nodes, in slot order (empty for leaves).
    pub operands: Vec<NodeId>,
}

impl Node {
    /// Whether this node produces a vector instruction (i.e. is not a
    /// gather leaf).
    pub fn is_vectorizable(&self) -> bool {
        !matches!(self.kind, NodeKind::Gather { .. })
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.scalars.len()
    }
}

/// The SLP graph: nodes in creation order, rooted at the seed stores.
#[derive(Clone, Debug)]
pub struct SlpGraph {
    nodes: Vec<Node>,
    /// scalar → node owning it as a *vectorized* member (gathers excluded;
    /// multi-node internals included).
    in_tree: HashMap<ValueId, NodeId>,
}

impl SlpGraph {
    /// The root node (the seed store bundle).
    pub fn root(&self) -> NodeId {
        0
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of lanes of the root bundle.
    pub fn lanes(&self) -> usize {
        self.nodes[0].lanes()
    }

    /// The node that vectorizes `scalar`, if any.
    pub fn node_of(&self, scalar: ValueId) -> Option<NodeId> {
        self.in_tree.get(&scalar).copied()
    }

    /// Whether `scalar` is vectorized by some node of this graph.
    pub fn contains(&self, scalar: ValueId) -> bool {
        self.in_tree.contains_key(&scalar)
    }

    /// Iterate over `(scalar, owning node)` for every vectorized scalar
    /// (multi-node chain internals included).
    pub fn vectorized_scalars(&self) -> impl Iterator<Item = (ValueId, NodeId)> + '_ {
        self.in_tree.iter().map(|(&v, &n)| (v, n))
    }

    /// Whether the node-count fuel budget truncated this graph (some
    /// bundle was gathered with [`GatherReason::NodeBudget`]).
    pub fn budget_exhausted(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Gather { reason: GatherReason::NodeBudget }))
    }

    /// Node ids reachable from the root (unreachable nodes exist after
    /// throttling cuts; cost and codegen ignore them).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            stack.extend(self.nodes[n].operands.iter().copied());
        }
        seen
    }

    /// Demote a vectorizable node to a gather leaf (a throttling *cut*):
    /// its scalars leave the vectorized set, its operand subtree is
    /// detached, and `in_tree` entries of now-unreachable nodes are purged.
    pub fn demote_to_gather(&mut self, id: NodeId, reason: GatherReason) {
        debug_assert!(id != self.root(), "the seed root cannot be demoted");
        self.nodes[id].kind = NodeKind::Gather { reason };
        self.nodes[id].operands.clear();
        let reach = self.reachable();
        self.in_tree.retain(|_, n| reach[*n] && *n != id);
    }

    /// Human-readable dump of the graph (for debugging and the examples).
    pub fn dump(&self, f: &Function) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let kind = match &node.kind {
                NodeKind::Vector { op } => format!("vector {op}"),
                NodeKind::MultiNode { op, chains } => {
                    format!("multi-node {op} x{}", chains[0].insts.len())
                }
                NodeKind::Load { placement } => format!("load ({placement:?})"),
                NodeKind::Store => "store".to_string(),
                NodeKind::Gather { reason } => format!("gather ({reason})"),
            };
            let lanes: Vec<String> = node
                .scalars
                .iter()
                .map(|&s| match f.value(s) {
                    lslp_ir::ValueData::Const(c) => f.const_value(*c).to_string(),
                    _ => f
                        .value_name(s)
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("%{}", s.raw())),
                })
                .collect();
            let _ = writeln!(out, "n{id}: {kind} [{}] -> {:?}", lanes.join(", "), node.operands);
        }
        out
    }
}

/// Bottom-up construction of the SLP graph for one seed bundle.
pub struct GraphBuilder<'a> {
    f: &'a Function,
    cfg: &'a VectorizerConfig,
    tm: &'a TargetSpec,
    addr: &'a AddrInfo,
    positions: &'a PositionMap,
    use_map: &'a UseMap,
    nodes: Vec<Node>,
    in_tree: HashMap<ValueId, NodeId>,
    bundle_cache: HashMap<Vec<ValueId>, NodeId>,
}

impl<'a> GraphBuilder<'a> {
    /// Prepare a builder over the current function state for `tm`, the
    /// target whose register width bounds every group's lane count.
    pub fn new(
        f: &'a Function,
        cfg: &'a VectorizerConfig,
        tm: &'a TargetSpec,
        addr: &'a AddrInfo,
        positions: &'a PositionMap,
        use_map: &'a UseMap,
    ) -> GraphBuilder<'a> {
        GraphBuilder {
            f,
            cfg,
            tm,
            addr,
            positions,
            use_map,
            nodes: Vec::new(),
            in_tree: HashMap::default(),
            bundle_cache: HashMap::default(),
        }
    }

    /// Build the graph for a bundle of seed stores (Listing 4's entry).
    pub fn build(mut self, seeds: &[ValueId]) -> SlpGraph {
        let root = self.build_rec(seeds.to_vec(), 0);
        debug_assert_eq!(root, 0, "the seed bundle must be the first node");
        SlpGraph { nodes: self.nodes, in_tree: self.in_tree }
    }

    fn gather(&mut self, scalars: Vec<ValueId>, reason: GatherReason) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node { scalars, kind: NodeKind::Gather { reason }, operands: Vec::new() });
        id
    }

    /// Reserve a vectorizable node and register its scalars in the tree.
    fn reserve(&mut self, scalars: Vec<ValueId>, kind: NodeKind) -> NodeId {
        let id = self.nodes.len();
        for &s in &scalars {
            self.in_tree.insert(s, id);
        }
        if let NodeKind::MultiNode { chains, .. } = &kind {
            for chain in chains {
                for &i in &chain.insts {
                    self.in_tree.insert(i, id);
                }
            }
        }
        self.nodes.push(Node { scalars, kind, operands: Vec::new() });
        id
    }

    /// The recursive `build_graph` of Listings 3–4.
    fn build_rec(&mut self, bundle: Vec<ValueId>, depth: u32) -> NodeId {
        // Exact bundle reuse: a value group may feed several users (a DAG).
        if let Some(&hit) = self.bundle_cache.get(&bundle) {
            return hit;
        }
        let id = self.build_rec_fresh(bundle.clone(), depth);
        self.bundle_cache.insert(bundle, id);
        id
    }

    fn build_rec_fresh(&mut self, bundle: Vec<ValueId>, depth: u32) -> NodeId {
        let f = self.f;
        // Termination conditions (footnote 1 of the paper).
        if self.nodes.len() >= self.cfg.max_graph_nodes {
            return self.gather(bundle, GatherReason::NodeBudget);
        }
        if depth > self.cfg.max_depth {
            return self.gather(bundle, GatherReason::DepthLimit);
        }
        if bundle.iter().any(|&v| !f.is_inst(v)) {
            return self.gather(bundle, GatherReason::NonInstruction);
        }
        {
            let mut seen = bundle.clone();
            seen.sort();
            seen.dedup();
            if seen.len() != bundle.len() {
                return self.gather(bundle, GatherReason::Duplicates);
            }
        }
        if bundle.iter().any(|v| self.in_tree.contains_key(v)) {
            return self.gather(bundle, GatherReason::AlreadyInTree);
        }
        let first = f.inst(bundle[0]).expect("checked: instruction");
        let isomorphic = bundle.iter().all(|&v| {
            let i = f.inst(v).expect("checked: instruction");
            i.op == first.op && i.ty == first.ty && (i.op == Opcode::Load || i.attr == first.attr)
        });
        if !isomorphic {
            return self.gather(bundle, GatherReason::OpcodeMismatch);
        }
        if first.ty.is_vector() || f.ty(first.args[0]).is_vector() {
            // Pre-existing vector code is left alone.
            return self.gather(bundle, GatherReason::UnvectorizableOpcode);
        }
        // Target legality re-check: seed widening caps the root at the
        // target's max VF, but callers can hand the builder wider seeds
        // (direct API use, `--emit graph` on a long chain), and interior
        // groups re-derive their element type lane by lane. Anything the
        // target's registers cannot hold is gathered here — except seed
        // stores, which codegen legalizes by splitting into chunks.
        if first.op != Opcode::Store {
            if let Some(elem) = first.ty.elem() {
                if bundle.len() as u32 > self.tm.max_vf(elem) {
                    return self.gather(bundle, GatherReason::ExceedsTargetWidth);
                }
            }
        }

        match first.op {
            Opcode::Load => self.build_load(bundle),
            Opcode::Store => self.build_store(bundle, depth),
            op if op.is_binary() && op.is_commutative() => self.build_commutative(bundle, depth),
            op if op.is_binary()
                || op.is_cast()
                || matches!(op, Opcode::ICmp | Opcode::FCmp | Opcode::Select) =>
            {
                self.build_ordered(bundle, depth)
            }
            _ => self.gather(bundle, GatherReason::UnvectorizableOpcode),
        }
    }

    fn build_load(&mut self, bundle: Vec<ValueId>) -> NodeId {
        let consecutive = bundle.windows(2).all(|w| self.addr.consecutive(w[0], w[1]));
        if !consecutive {
            return self.gather(bundle, GatherReason::NotConsecutiveLoads);
        }
        match load_placement(self.f, self.positions, self.addr, &bundle) {
            Some(placement) => self.reserve(bundle, NodeKind::Load { placement }),
            None => self.gather(bundle, GatherReason::NotSchedulable),
        }
    }

    fn build_store(&mut self, bundle: Vec<ValueId>, depth: u32) -> NodeId {
        let consecutive = bundle.windows(2).all(|w| self.addr.consecutive(w[0], w[1]));
        if !consecutive {
            return self.gather(bundle, GatherReason::NotConsecutiveLoads);
        }
        let same_value_ty = bundle
            .iter()
            .all(|&s| self.f.ty(self.f.args_of(s)[0]) == self.f.ty(self.f.args_of(bundle[0])[0]));
        if !same_value_ty {
            return self.gather(bundle, GatherReason::OpcodeMismatch);
        }
        if !bundle_schedulable(self.f, self.positions, self.addr, &bundle) {
            return self.gather(bundle, GatherReason::NotSchedulable);
        }
        let id = self.reserve(bundle.clone(), NodeKind::Store);
        let values: Vec<ValueId> = bundle.iter().map(|&s| self.f.args_of(s)[0]).collect();
        let child = self.build_rec(values, depth + 1);
        self.nodes[id].operands.push(child);
        id
    }

    /// Commutative groups: multi-node coarsening (Listing 4) followed by
    /// operand reordering over the whole frontier.
    fn build_commutative(&mut self, bundle: Vec<ValueId>, depth: u32) -> NodeId {
        if !bundle_schedulable(self.f, self.positions, self.addr, &bundle) {
            return self.gather(bundle, GatherReason::NotSchedulable);
        }
        let op = self.f.opcode(bundle[0]).expect("instruction");
        let chains = form_multinode(
            self.f,
            self.use_map,
            &self.in_tree,
            &bundle,
            op,
            self.cfg.max_multinode_insts,
            self.cfg.fast_math,
        );
        let k = chains[0].insts.len();
        // Chain internals need no schedulability check of their own: each
        // has exactly one use, its chain parent (`multinode::absorbable`),
        // so any cross-lane dependence on one passes through its lane root,
        // and the root check above catches it.
        let lane_operands: Vec<Vec<ValueId>> = chains.iter().map(|c| c.operands.clone()).collect();
        let kind = if k > 1 { NodeKind::MultiNode { op, chains } } else { NodeKind::Vector { op } };
        let id = self.reserve(bundle, kind);
        let slots = reorder_operands(self.f, self.addr, &lane_operands, self.cfg);
        for slot in slots {
            let child = self.build_rec(slot, depth + 1);
            self.nodes[id].operands.push(child);
        }
        id
    }

    /// Non-commutative vectorizable groups: recurse in operand order.
    fn build_ordered(&mut self, bundle: Vec<ValueId>, depth: u32) -> NodeId {
        if !bundle_schedulable(self.f, self.positions, self.addr, &bundle) {
            return self.gather(bundle, GatherReason::NotSchedulable);
        }
        let op = self.f.opcode(bundle[0]).expect("instruction");
        let nargs = self.f.args_of(bundle[0]).len();
        let id = self.reserve(bundle.clone(), NodeKind::Vector { op });
        for slot in 0..nargs {
            let column: Vec<ValueId> = bundle.iter().map(|&v| self.f.args_of(v)[slot]).collect();
            let child = self.build_rec(column, depth + 1);
            self.nodes[id].operands.push(child);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    fn build_for(f: &Function, cfg: &VectorizerConfig, seeds: &[ValueId]) -> SlpGraph {
        build_for_target(f, cfg, &TargetSpec::default(), seeds)
    }

    fn build_for_target(
        f: &Function,
        cfg: &VectorizerConfig,
        tm: &TargetSpec,
        seeds: &[ValueId],
    ) -> SlpGraph {
        let addr = AddrInfo::analyze(f);
        let positions = f.position_map();
        let use_map = f.use_map();
        GraphBuilder::new(f, cfg, tm, &addr, &positions, &use_map).build(seeds)
    }

    /// `A[i]   = B[i]   + C[i]`
    /// `A[i+1] = B[i+1] + C[i+1]` — the textbook fully-vectorizable case.
    fn simple_add_kernel() -> (Function, Vec<ValueId>) {
        add_kernel_lanes(2)
    }

    /// [`simple_add_kernel`] with a configurable store-chain length.
    fn add_kernel_lanes(lanes: i64) -> (Function, Vec<ValueId>) {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
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
            stores.push(b.store(s, ga));
        }
        (f, stores)
    }

    #[test]
    fn fully_vectorizable_kernel_builds_clean_tree() {
        let (f, seeds) = simple_add_kernel();
        let g = build_for(&f, &VectorizerConfig::slp(), &seeds);
        assert!(matches!(g.node(g.root()).kind, NodeKind::Store));
        // Store -> add -> two load nodes; no gathers.
        let gathers = g.nodes().iter().filter(|n| !n.is_vectorizable()).count();
        assert_eq!(gathers, 0, "{}", g.dump(&f));
        let loads = g.nodes().iter().filter(|n| matches!(n.kind, NodeKind::Load { .. })).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn all_configs_share_graph_on_aligned_code() {
        let (f, seeds) = simple_add_kernel();
        for cfg in [VectorizerConfig::slp_nr(), VectorizerConfig::slp(), VectorizerConfig::lslp()] {
            let g = build_for(&f, &cfg, &seeds);
            assert!(
                g.nodes().iter().all(Node::is_vectorizable),
                "config {:?} produced gathers:\n{}",
                cfg.reorder,
                g.dump(&f)
            );
        }
    }

    #[test]
    fn non_consecutive_stores_gather_immediately() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let two = b.func().const_i64(2);
        let g0 = b.gep(pa, i, 8);
        let s0 = b.store(x, g0);
        let i2 = b.add(i, two);
        let g2 = b.gep(pa, i2, 8);
        let s1 = b.store(x, g2);
        let g = build_for(&f, &VectorizerConfig::lslp(), &[s0, s1]);
        assert!(matches!(
            g.node(0).kind,
            NodeKind::Gather { reason: GatherReason::NotConsecutiveLoads }
        ));
    }

    #[test]
    fn duplicate_lanes_gather() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let v = b.add(i, one);
        let i1 = b.add(i, one);
        let g0 = b.gep(pa, i, 8);
        let s0 = b.store(v, g0);
        let g1 = b.gep(pa, i1, 8);
        let s1 = b.store(v, g1);
        let g = build_for(&f, &VectorizerConfig::lslp(), &[s0, s1]);
        // The store node vectorizes; its value bundle [v, v] is a splat
        // gather.
        assert!(matches!(g.node(0).kind, NodeKind::Store));
        let child = g.node(0).operands[0];
        assert!(matches!(
            g.node(child).kind,
            NodeKind::Gather { reason: GatherReason::Duplicates }
        ));
    }

    #[test]
    fn shared_subexpression_reuses_node() {
        // Both lanes' adds use the same load pair bundle: the bundle cache
        // must return one node, not gather on AlreadyInTree.
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        let mut loads = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let gb = b.gep(pb, idx, 8);
            loads.push(b.load(Type::I64, gb));
        }
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let s = b.mul(loads[o as usize], loads[o as usize]);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        let g = build_for(&f, &VectorizerConfig::lslp(), &stores);
        // mul is commutative: both operand slots are the same load bundle.
        let mul = g.node(0).operands[0];
        let ops = &g.node(mul).operands;
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0], ops[1], "shared bundle must be one node:\n{}", g.dump(&f));
        assert!(matches!(g.node(ops[0]).kind, NodeKind::Load { .. }));
    }

    #[test]
    fn multinode_forms_only_with_lslp() {
        // A[i+o] = (B[i+o] & C[i+o]) & D[i+o] — an `&` chain of 2 per lane.
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let pd = f.add_param("D", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let lb = {
                let p = b.gep(pb, idx, 8);
                b.load(Type::I64, p)
            };
            let lc = {
                let p = b.gep(pc, idx, 8);
                b.load(Type::I64, p)
            };
            let ld = {
                let p = b.gep(pd, idx, 8);
                b.load(Type::I64, p)
            };
            let inner = b.and(lb, lc);
            let outer = b.and(inner, ld);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(outer, ga));
        }
        let g = build_for(&f, &VectorizerConfig::lslp(), &stores);
        let mn = g.node(g.node(0).operands[0]);
        match &mn.kind {
            NodeKind::MultiNode { op, chains } => {
                assert_eq!(*op, Opcode::And);
                assert_eq!(chains[0].insts.len(), 2);
                assert_eq!(mn.operands.len(), 3);
            }
            other => panic!("expected multi-node, got {other:?}\n{}", g.dump(&f)),
        }
        // Vanilla SLP keeps single nodes.
        let g = build_for(&f, &VectorizerConfig::slp(), &stores);
        let n = g.node(g.node(0).operands[0]);
        assert!(matches!(n.kind, NodeKind::Vector { op: Opcode::And }));
    }

    #[test]
    fn in_tree_registration_covers_multinode_internals() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let z = f.add_param("z", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        let mut inners = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let inner = b.xor(x, y);
            let outer = b.xor(inner, z);
            inners.push(inner);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(outer, ga));
        }
        let g = build_for(&f, &VectorizerConfig::lslp(), &stores);
        for inner in inners {
            assert!(g.contains(inner), "chain internals must be in-tree");
        }
    }

    #[test]
    fn interior_groups_respect_target_width() {
        // An 8-store chain of i64: sse4.2 holds two i64 lanes per
        // register, so the seed store survives (codegen legalizes it by
        // splitting) but every interior group is over-wide and gathers.
        // Regression test for the max-VF re-check: widening used to be
        // checked only at seed collection, never inside `build_graph`.
        let (f, seeds) = add_kernel_lanes(8);
        let sse = TargetSpec::sse42();
        let g = build_for_target(&f, &VectorizerConfig::lslp(), &sse, &seeds);
        assert!(matches!(g.node(g.root()).kind, NodeKind::Store));
        let reasons: Vec<GatherReason> = g
            .nodes()
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Gather { reason } => Some(reason),
                _ => None,
            })
            .collect();
        assert!(reasons.contains(&GatherReason::ExceedsTargetWidth), "{}", g.dump(&f));
        // The same seed fits one avx512 register: the tree stays clean.
        let wide = TargetSpec::avx512();
        let g = build_for_target(&f, &VectorizerConfig::lslp(), &wide, &seeds);
        let gathers = g.nodes().iter().filter(|n| !n.is_vectorizable()).count();
        assert_eq!(gathers, 0, "{}", g.dump(&f));
    }
}

impl SlpGraph {
    /// Render the graph in Graphviz DOT format (one digraph; vectorizable
    /// nodes as boxes, gathers as dashed ellipses, per-node lane labels).
    /// Costs can be added by the caller via [`crate::graph_cost`]'s
    /// `per_node` vector.
    pub fn to_dot(&self, f: &Function, per_node_cost: Option<&[i64]>) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("digraph slp {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n");
        let reach = self.reachable();
        for (id, node) in self.nodes.iter().enumerate() {
            if !reach[id] {
                continue;
            }
            let lanes: Vec<String> = node
                .scalars
                .iter()
                .map(|&s| match f.value(s) {
                    lslp_ir::ValueData::Const(c) => f.const_value(*c).to_string(),
                    _ => f
                        .value_name(s)
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("%{}", s.raw())),
                })
                .collect();
            let kind = match &node.kind {
                NodeKind::Vector { op } => format!("{op}"),
                NodeKind::MultiNode { op, chains } => {
                    format!("multi {op} x{}", chains[0].insts.len())
                }
                NodeKind::Load { .. } => "load".to_string(),
                NodeKind::Store => "store".to_string(),
                NodeKind::Gather { reason } => format!("gather\\n({reason})"),
            };
            let cost = per_node_cost
                .and_then(|c| c.get(id))
                .map(|c| format!("\\ncost {c:+}"))
                .unwrap_or_default();
            let style = if node.is_vectorizable() {
                "shape=box, style=filled, fillcolor=\"#d8f0d8\""
            } else {
                "shape=ellipse, style=dashed"
            };
            let _ = writeln!(
                out,
                "  n{id} [{style}, label=\"{kind}\\n[{}]{cost}\"];",
                lanes.join(", ")
            );
            for (slot, &child) in node.operands.iter().enumerate() {
                let _ = writeln!(out, "  n{child} -> n{id} [label=\"{slot}\"];");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::config::VectorizerConfig;
    use lslp_ir::{FunctionBuilder, Type};

    #[test]
    fn dot_output_is_wellformed() {
        let mut f = Function::new("k");
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
            let s = b.add(lb, lb);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(s, ga));
        }
        let cfg = VectorizerConfig::lslp();
        let addr = lslp_analysis::AddrInfo::analyze(&f);
        let positions = f.position_map();
        let use_map = f.use_map();
        let tm = TargetSpec::default();
        let g = GraphBuilder::new(&f, &cfg, &tm, &addr, &positions, &use_map).build(&stores);
        let um = f.use_map();
        let cost = crate::cost::graph_cost(&f, &g, &lslp_target::CostModel::default(), &um);
        let dot = g.to_dot(&f, Some(&cost.per_node));
        assert!(dot.starts_with("digraph slp {"), "{dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
        assert!(dot.contains("store"), "{dot}");
        assert!(dot.contains("cost -1"), "{dot}");
        assert!(dot.contains("n1 -> n0"), "{dot}");
        // store←add plus the add's two operand slots sharing one load node.
        assert_eq!(dot.matches("->").count(), 3, "{dot}");
    }

    #[test]
    fn dot_skips_throttled_subtrees() {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut stores = Vec::new();
        for o in 0..2i64 {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let m = b.mul(x, y);
            let ga = b.gep(pa, idx, 8);
            stores.push(b.store(m, ga));
        }
        let cfg = VectorizerConfig::lslp();
        let addr = lslp_analysis::AddrInfo::analyze(&f);
        let positions = f.position_map();
        let use_map = f.use_map();
        let tm = TargetSpec::default();
        let mut g = GraphBuilder::new(&f, &cfg, &tm, &addr, &positions, &use_map).build(&stores);
        let before_nodes = g.to_dot(&f, None).matches("\n  n").count();
        g.demote_to_gather(1, GatherReason::Throttled);
        let dot = g.to_dot(&f, None);
        let after_nodes = dot.matches("\n  n").count();
        assert!(after_nodes <= before_nodes);
        assert!(dot.contains("throttled"), "{dot}");
    }
}
