//! Bundle scheduling legality.
//!
//! The SLP code generator replaces a bundle (one scalar instruction per
//! vector lane) with a single vector instruction placed at the body position
//! of the bundle's *last* member. That is legal when:
//!
//! 1. no member depends (transitively, through SSA operands) on another
//!    member — lanes must be computable simultaneously; and
//! 2. sinking each memory-accessing member down to the last member's
//!    position crosses no conflicting memory operation outside the bundle.
//!
//! This is a conservative re-statement of LLVM's SLP scheduler sufficient
//! for straight-line code. Both checks cost O(the window between the
//! earliest and the latest member).

use lslp_ir::hash::HashSet;
use lslp_ir::{Function, InlineVec, Opcode, PositionMap, ValueId};

use crate::addr::AddrInfo;
use crate::alias::may_alias;

/// Where a vector memory node is emitted relative to its scalar members.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// At the last member's position (members sink down).
    Sink,
    /// At the first member's position (load-only; members hoist up).
    Hoist,
}

/// Whether sinking memory access `m` past memory access `x` changes
/// program behaviour (assuming at least one is a store).
fn mem_conflict(f: &Function, addr: &AddrInfo, m: ValueId, x: ValueId) -> bool {
    let m_store = f.opcode(m) == Some(Opcode::Store);
    let x_store = f.opcode(x) == Some(Opcode::Store);
    if !m_store && !x_store {
        return false; // load/load never conflicts
    }
    match (addr.loc(m), addr.loc(x)) {
        (Some(lm), Some(lx)) => may_alias(f, lm, lx),
        _ => true,
    }
}

/// Values a [`SmallSet`] holds inline, and bundle lanes whose body
/// indices stay inline: the vectorizer's widest factor is 16 lanes.
const INLINE_VALUES: usize = 16;

/// A set of values that scans a short inline list and moves to a hash
/// set once the list is full, so small sets allocate nothing.
#[derive(Default)]
struct SmallSet {
    small: InlineVec<ValueId, INLINE_VALUES>,
    large: HashSet<ValueId>,
}

impl SmallSet {
    fn of(values: &[ValueId]) -> SmallSet {
        let mut set = SmallSet::default();
        for &v in values {
            set.insert(v);
        }
        set
    }

    /// Add `v`; whether it was absent.
    fn insert(&mut self, v: ValueId) -> bool {
        if self.large.is_empty() {
            if self.small.contains(&v) {
                return false;
            }
            if self.small.len() < INLINE_VALUES {
                self.small.push(v);
                return true;
            }
            self.large.extend(self.small.iter().copied());
        }
        self.large.insert(v)
    }

    fn contains(&self, v: ValueId) -> bool {
        if self.large.is_empty() {
            self.small.contains(&v)
        } else {
            self.large.contains(&v)
        }
    }
}

/// Whether every member is a body instruction (has an order key).
fn all_keyed(positions: &PositionMap, bundle: &[ValueId]) -> bool {
    bundle.iter().all(|&v| positions.contains(v))
}

/// Whether the lanes can be computed simultaneously: no member repeats and
/// none reaches another through SSA operands. Members must be keyed.
///
/// One walk up the operand DAG, started from every member, with one
/// visited set shared by all of them. Keys are topological (the verifier
/// enforces def-before-use), so a value keyed before the earliest member
/// cannot reach a member: the walk stops there, and at unkeyed values
/// (parameters and constants). A value visited from one member has been
/// shown to reach no member, so it is never walked twice. Every value the
/// walk expands lies between the earliest and the latest member.
fn ssa_independent(f: &Function, positions: &PositionMap, bundle: &[ValueId]) -> bool {
    if bundle.iter().enumerate().any(|(i, v)| bundle[..i].contains(v)) {
        return false;
    }
    let lo = bundle.iter().filter_map(|&v| positions.key(v)).min().expect("members are keyed");
    let mut seen = SmallSet::default();
    let mut stack: InlineVec<ValueId, INLINE_VALUES> = InlineVec::new();
    for &m in bundle {
        stack.extend(f.args_of(m).iter().copied());
        while let Some(v) = stack.pop() {
            if positions.key(v).is_none_or(|k| k < lo) || !seen.insert(v) {
                continue;
            }
            if bundle.contains(&v) {
                return false;
            }
            stack.extend(f.args_of(v).iter().copied());
        }
    }
    true
}

/// The body index of the bundle member with the extreme key (`last`:
/// latest, else earliest), and every member's body index.
fn member_indices(
    body: &[ValueId],
    positions: &PositionMap,
    bundle: &[ValueId],
    last: bool,
) -> (usize, InlineVec<usize, INLINE_VALUES>) {
    let idx: InlineVec<usize, INLINE_VALUES> = bundle
        .iter()
        .map(|&v| positions.index_in(body, v).expect("bundle members are in the body"))
        .collect();
    let end = if last { idx.iter().max() } else { idx.iter().min() };
    (*end.expect("bundle is non-empty"), idx)
}

/// Memory legality of sinking every member down to the last member:
/// no memory-accessing member crosses a conflicting access outside the
/// bundle. Members must be keyed.
fn sink_legal(f: &Function, positions: &PositionMap, addr: &AddrInfo, bundle: &[ValueId]) -> bool {
    let body = f.body();
    let (last_pos, idx) = member_indices(body, positions, bundle, true);
    let in_bundle = SmallSet::of(bundle);
    for (&m, &from) in bundle.iter().zip(idx.iter()) {
        if !f.opcode(m).is_some_and(Opcode::is_memory) {
            continue;
        }
        for x in &body[from + 1..=last_pos] {
            if in_bundle.contains(*x) {
                continue;
            }
            if f.opcode(*x).is_some_and(Opcode::is_memory) && mem_conflict(f, addr, m, *x) {
                return false;
            }
        }
    }
    true
}

/// Everything but SSA independence that hoisting a bundle of loads up to
/// its first member needs: all members are loads, lane 0's pointer is
/// defined before the first member, and no member crosses an aliasing
/// store. Members must be keyed.
fn hoist_legal(f: &Function, positions: &PositionMap, addr: &AddrInfo, bundle: &[ValueId]) -> bool {
    if bundle.iter().any(|&v| f.opcode(v) != Some(Opcode::Load)) {
        return false;
    }
    let body = f.body();
    let (first_pos, idx) = member_indices(body, positions, bundle, false);
    // The emitted vector load takes lane 0's pointer operand, so that
    // pointer must already be defined at the hoist point. When the seed
    // group was written in reverse address order, lane 0's member (lowest
    // address) can sit *later* in the body than the first member — its
    // address computation would not dominate the hoisted load.
    let lane0_ptr = f.args_of(bundle[0])[0];
    let first_key = positions.key(body[first_pos]).expect("members are keyed");
    if f.is_inst(lane0_ptr) && positions.key(lane0_ptr).is_none_or(|p| p >= first_key) {
        return false;
    }
    let in_bundle = SmallSet::of(bundle);
    for (&m, &to) in bundle.iter().zip(idx.iter()) {
        for x in &body[first_pos..to] {
            if in_bundle.contains(*x) {
                continue;
            }
            if f.opcode(*x).is_some_and(Opcode::is_memory) && mem_conflict(f, addr, m, *x) {
                return false;
            }
        }
    }
    true
}

/// Test whether a bundle of body instructions can be scheduled as one vector
/// instruction at the position of its last member (members conceptually
/// *sink* down to that point).
///
/// `positions` must be the order keys of the current body
/// ([`Function::position_map`]). Members outside the body make the bundle
/// unschedulable.
pub fn bundle_schedulable(
    f: &Function,
    positions: &PositionMap,
    addr: &AddrInfo,
    bundle: &[ValueId],
) -> bool {
    debug_assert!(!bundle.is_empty());
    all_keyed(positions, bundle)
        && ssa_independent(f, positions, bundle)
        && sink_legal(f, positions, addr, bundle)
}

/// Test whether a bundle of *loads* can be scheduled as one vector load at
/// the position of its first member (members conceptually *hoist* up).
///
/// Only meaningful for load bundles: the emitted vector load needs nothing
/// but lane 0's pointer, which dominates the first member by SSA
/// construction, so hoisting is legal whenever no aliasing store sits
/// between the first member and each hoisted load. This is what lets
/// `A[i] = A[i] & ...; A[i+1] = ... & A[i+1]` patterns vectorize: the lane-1
/// load of `A[i+1]` hoists above the lane-0 store to `A[i]`.
pub fn bundle_hoistable(
    f: &Function,
    positions: &PositionMap,
    addr: &AddrInfo,
    bundle: &[ValueId],
) -> bool {
    debug_assert!(!bundle.is_empty());
    all_keyed(positions, bundle)
        && ssa_independent(f, positions, bundle)
        && hoist_legal(f, positions, addr, bundle)
}

/// Where a bundle of loads can be emitted as one vector load:
/// [`Placement::Sink`] when [`bundle_schedulable`] holds, else
/// [`Placement::Hoist`] when [`bundle_hoistable`] holds, else `None`. The
/// same verdicts as calling both, with one SSA-independence walk.
pub fn load_placement(
    f: &Function,
    positions: &PositionMap,
    addr: &AddrInfo,
    bundle: &[ValueId],
) -> Option<Placement> {
    debug_assert!(!bundle.is_empty());
    if !all_keyed(positions, bundle) || !ssa_independent(f, positions, bundle) {
        None
    } else if sink_legal(f, positions, addr, bundle) {
        Some(Placement::Sink)
    } else if hoist_legal(f, positions, addr, bundle) {
        Some(Placement::Hoist)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    fn pos(f: &Function) -> PositionMap {
        f.position_map()
    }

    #[test]
    fn independent_loads_schedulable() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::F64, p0);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let l1 = b.load(Type::F64, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(bundle_schedulable(&f, &pos(&f), &ai, &[l0, l1]));
    }

    #[test]
    fn dependent_members_rejected() {
        fn b2(f: &mut Function, x: ValueId) -> ValueId {
            let mut b = FunctionBuilder::new(f);
            b.add(x, x)
        }
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let s1 = b.add(x, x);
        let mid = b.mul(s1, x);
        let s2 = b.add(mid, x); // s2 transitively depends on s1
        let ai = AddrInfo::analyze(&f);
        assert!(!bundle_schedulable(&f, &pos(&f), &ai, &[s1, s2]));
        // Duplicate members are also rejected (the vectorizer gathers them).
        assert!(!bundle_schedulable(&f, &pos(&f), &ai, &[s1, s1]));
        let indep = b2(&mut f, x);
        let ai = AddrInfo::analyze(&f);
        assert!(bundle_schedulable(&f, &pos(&f), &ai, &[s1, indep]));
    }

    #[test]
    fn aliasing_store_between_loads_rejected() {
        // load A[i]; store A[i] = c; load A[i+1]  — the first load cannot
        // sink past the store.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::F64, p0);
        let c = b.func().const_float(lslp_ir::ScalarType::F64, 9.0);
        b.store(c, p0);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let l1 = b.load(Type::F64, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(!bundle_schedulable(&f, &pos(&f), &ai, &[l0, l1]));
    }

    #[test]
    fn non_aliasing_store_between_loads_accepted() {
        // The intervening store goes to a different parameter array.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let bp = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::F64, p0);
        let pb = b.gep(bp, i, 8);
        let c = b.func().const_float(lslp_ir::ScalarType::F64, 9.0);
        b.store(c, pb);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let l1 = b.load(Type::F64, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(bundle_schedulable(&f, &pos(&f), &ai, &[l0, l1]));
    }

    #[test]
    fn aliasing_load_between_stores_rejected() {
        // store A[i]; load A[i]; store A[i+1] — sinking the first store past
        // the load would change the loaded value.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let x = f.add_param("x", Type::F64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let s0 = b.store(x, p0);
        let _l = b.load(Type::F64, p0);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let s1 = b.store(x, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(!bundle_schedulable(&f, &pos(&f), &ai, &[s0, s1]));
    }

    #[test]
    fn disjoint_load_between_stores_accepted() {
        // store A[i]; load A[i+7]; store A[i+1] — provably disjoint.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let x = f.add_param("x", Type::F64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let seven = b.func().const_i64(7);
        let p0 = b.gep(a, i, 8);
        let s0 = b.store(x, p0);
        let i7 = b.add(i, seven);
        let p7 = b.gep(a, i7, 8);
        let _l = b.load(Type::F64, p7);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let s1 = b.store(x, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(bundle_schedulable(&f, &pos(&f), &ai, &[s0, s1]));
    }

    #[test]
    fn fig4_load_pattern_hoists_but_does_not_sink() {
        // load A[i]; store A[i]; load A[i+1]; store A[i+1] — the load bundle
        // cannot sink (lane 0 would cross its own store) but can hoist
        // (A[i+1] does not alias the store to A[i]).
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::I64, p0);
        let v0 = b.add(l0, one);
        b.store(v0, p0);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let l1 = b.load(Type::I64, p1);
        let v1 = b.add(l1, one);
        b.store(v1, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(!bundle_schedulable(&f, &pos(&f), &ai, &[l0, l1]));
        assert!(bundle_hoistable(&f, &pos(&f), &ai, &[l0, l1]));
    }

    #[test]
    fn hoist_rejects_aliasing_store_and_non_loads() {
        // store A[i+1] between the loads: hoisting l1 would cross it.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let x = f.add_param("x", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::I64, p0);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        b.store(x, p1);
        let l1 = b.load(Type::I64, p1);
        let s0 = b.add(l0, one);
        let s1 = b.add(l1, one);
        let ai = AddrInfo::analyze(&f);
        assert!(!bundle_hoistable(&f, &pos(&f), &ai, &[l0, l1]));
        // Non-load bundles are not eligible for hoisting.
        assert!(!bundle_hoistable(&f, &pos(&f), &ai, &[s0, s1]));
        assert!(bundle_schedulable(&f, &pos(&f), &ai, &[s0, s1]));
    }

    #[test]
    fn orphaned_member_rejected() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let s1 = b.add(x, x);
        let s2 = b.add(x, x);
        let mut dead = HashSet::default();
        dead.insert(s2);
        let positions_before = pos(&f);
        f.remove_from_body(&dead);
        let ai = AddrInfo::analyze(&f);
        // Stale positions map would still contain s2; fresh one must not.
        assert!(positions_before.contains(s2));
        assert!(!bundle_schedulable(&f, &pos(&f), &ai, &[s1, s2]));
    }
}

#[cfg(test)]
mod hoist_dominance_tests {
    use super::*;
    use crate::addr::AddrInfo;
    use lslp_ir::{FunctionBuilder, Type};

    /// Reverse-address-order statements: lane 0's load (lowest address)
    /// sits later in the body, so its pointer does not dominate the hoist
    /// point — the bundle must be rejected (found by review; previously
    /// produced use-before-def vector code).
    #[test]
    fn hoist_rejects_lane0_pointer_defined_after_first_member() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        // A[i+1] first...
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let l1 = b.load(Type::I64, p1);
        let v1 = b.add(l1, one);
        b.store(v1, p1);
        // ...then A[i+0].
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::I64, p0);
        let v0 = b.add(l0, one);
        b.store(v0, p0);
        let ai = AddrInfo::analyze(&f);
        let positions = f.position_map();
        // Lane order is address order: [l0, l1].
        assert!(!bundle_schedulable(&f, &positions, &ai, &[l0, l1]));
        assert!(
            !bundle_hoistable(&f, &positions, &ai, &[l0, l1]),
            "lane 0's gep is defined after the first member; hoisting would \
             emit a use-before-def vector load"
        );
    }
}

/// The shared operand walk against the pairwise check it replaced, on
/// random straight-line functions.
#[cfg(test)]
mod walk_tests {
    use lslp_ir::hash::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::test_rng::Rng;
    use lslp_ir::{FunctionBuilder, Type};

    /// Whether `from` transitively depends on `to` through SSA operands.
    fn depends_on(
        f: &Function,
        from: ValueId,
        to: ValueId,
        cache: &mut HashMap<(ValueId, ValueId), bool>,
    ) -> bool {
        if from == to {
            return true;
        }
        if let Some(&hit) = cache.get(&(from, to)) {
            return hit;
        }
        let mut result = false;
        for &arg in f.args_of(from) {
            if f.is_inst(arg) && depends_on(f, arg, to, cache) {
                result = true;
                break;
            }
        }
        cache.insert((from, to), result);
        result
    }

    /// The reference: `depends_on` both ways for every pair of lanes.
    fn pairwise_independent(f: &Function, bundle: &[ValueId]) -> bool {
        let mut cache = HashMap::default();
        bundle.iter().enumerate().all(|(i, &a)| {
            bundle[i + 1..]
                .iter()
                .all(|&b| !depends_on(f, a, b, &mut cache) && !depends_on(f, b, a, &mut cache))
        })
    }

    fn reference_schedulable(f: &Function, p: &PositionMap, a: &AddrInfo, b: &[ValueId]) -> bool {
        all_keyed(p, b) && pairwise_independent(f, b) && sink_legal(f, p, a, b)
    }

    fn reference_hoistable(f: &Function, p: &PositionMap, a: &AddrInfo, b: &[ValueId]) -> bool {
        all_keyed(p, b) && pairwise_independent(f, b) && hoist_legal(f, p, a, b)
    }

    /// A random function of 2–4 lanes, each `OUT[idx] = op(A[idx], ..)`,
    /// and its bundles: roots, loads, stores, and random body
    /// instructions, each in lane order or reversed.
    ///
    /// The lanes' indices may share address arithmetic; a root may have
    /// only parameter and constant operands; a cross-lane edge 1–5 hops
    /// deep may join two roots, or one lane's load to another's address;
    /// a store to `A` may sit between two lanes; a bundle member may be
    /// duplicated.
    fn random_case(seed: u64) -> (Function, Vec<Vec<ValueId>>) {
        let mut r = Rng(seed);
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let out = f.add_param("OUT", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let x = f.add_param("x", Type::I64);
        let lanes = 2 + r.below(3);
        // 0: no cross-lane edge, 1: root to root, 2: load to address.
        let cross = r.below(3);
        let (src, dst) = (r.below(lanes), r.below(lanes));
        let hops = r.below(5);
        let mut b = FunctionBuilder::new(&mut f);
        let k = b.func().const_i64(7);
        let shared = match r.below(2) {
            0 => i,
            _ => {
                let c = b.func().const_i64(r.below(4) as i64);
                b.add(i, c)
            }
        };
        let (mut idxs, mut loads, mut roots) = (vec![], vec![], vec![]);
        for l in 0..lanes {
            let c = b.func().const_i64(l as i64);
            let mut idx = b.add(shared, c);
            if cross == 2 && l == dst && src < dst {
                let mut v = loads[src];
                for _ in 0..hops {
                    v = b.add(v, x);
                }
                idx = b.add(idx, v);
            }
            let p = b.gep(a, idx, 8);
            let ld = b.load(Type::I64, p);
            let leaf = [x, k, ld][r.below(3)];
            let root = match r.below(3) {
                0 => b.add(x, k),
                1 => b.mul(ld, leaf),
                _ => b.add(leaf, ld),
            };
            if r.below(4) == 0 {
                let c = b.func().const_i64(r.below(lanes) as i64);
                let at = b.add(shared, c);
                let p = b.gep(a, at, 8);
                b.store(x, p);
            }
            idxs.push(idx);
            loads.push(ld);
            roots.push(root);
        }
        if cross == 1 && src != dst {
            let mut v = roots[src];
            for _ in 0..hops {
                v = b.add(v, k);
            }
            roots[dst] = b.mul(roots[dst], v);
        }
        let stores: Vec<ValueId> = (0..lanes)
            .map(|l| {
                let p = b.gep(out, idxs[l], 8);
                b.store(roots[l], p)
            })
            .collect();
        let body = f.body().to_vec();
        let random: Vec<ValueId> = (0..lanes).map(|_| body[r.below(body.len())]).collect();
        let mut bundles = vec![roots, loads, stores, random];
        for bundle in &mut bundles {
            if r.below(2) == 0 {
                bundle.reverse();
            }
            if r.below(6) == 0 {
                let from = r.below(lanes);
                bundle[r.below(lanes)] = bundle[from];
            }
        }
        (f, bundles)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn shared_walk_matches_pairwise_check(seed in any::<u64>()) {
            let (f, bundles) = random_case(seed);
            let positions = f.position_map();
            let addr = AddrInfo::analyze(&f);
            for bundle in &bundles {
                let sink = reference_schedulable(&f, &positions, &addr, bundle);
                let hoist = reference_hoistable(&f, &positions, &addr, bundle);
                prop_assert_eq!(bundle_schedulable(&f, &positions, &addr, bundle), sink);
                prop_assert_eq!(bundle_hoistable(&f, &positions, &addr, bundle), hoist);
                let want = if sink {
                    Some(Placement::Sink)
                } else if hoist {
                    Some(Placement::Hoist)
                } else {
                    None
                };
                prop_assert_eq!(load_placement(&f, &positions, &addr, bundle), want);
            }
        }
    }

    /// The generator is not degenerate: every bundle kind is found both
    /// independent and dependent, and load bundles reach all three
    /// placements.
    #[test]
    fn random_cases_cover_both_verdicts() {
        let mut independent = [[0usize; 2]; 4];
        let mut placements = [0usize; 3];
        for seed in 0..400 {
            let (f, bundles) = random_case(seed);
            for (kind, bundle) in bundles.iter().enumerate() {
                independent[kind][usize::from(pairwise_independent(&f, bundle))] += 1;
            }
            let (positions, addr) = (f.position_map(), AddrInfo::analyze(&f));
            placements[match load_placement(&f, &positions, &addr, &bundles[1]) {
                Some(Placement::Sink) => 0,
                Some(Placement::Hoist) => 1,
                None => 2,
            }] += 1;
        }
        for (kind, counts) in independent.iter().enumerate() {
            assert!(counts.iter().all(|&n| n > 0), "bundle kind {kind}: {counts:?}");
        }
        assert!(placements.iter().all(|&n| n > 0), "{placements:?}");
    }
}
