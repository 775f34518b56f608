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
//! for straight-line code.

use std::collections::{HashMap, HashSet};

use lslp_ir::{Function, Opcode, PositionMap, ValueId};

use crate::addr::AddrInfo;
use crate::alias::may_alias;

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

fn ssa_independent(f: &Function, bundle: &[ValueId]) -> bool {
    let mut cache = HashMap::new();
    for (i, &a) in bundle.iter().enumerate() {
        for &b in &bundle[i + 1..] {
            if depends_on(f, a, b, &mut cache) || depends_on(f, b, a, &mut cache) {
                return false;
            }
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
) -> (usize, Vec<usize>) {
    let idx: Vec<usize> = bundle
        .iter()
        .map(|&v| positions.index_in(body, v).expect("bundle members are in the body"))
        .collect();
    let end = if last { idx.iter().max() } else { idx.iter().min() };
    (*end.expect("bundle is non-empty"), idx)
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
    // All members must be in the body.
    if bundle.iter().any(|&v| !positions.contains(v)) {
        return false;
    }
    // 1. No intra-bundle SSA dependence.
    if !ssa_independent(f, bundle) {
        return false;
    }
    // 2. Memory legality when sinking members down to the bundle's last
    //    position.
    let body = f.body();
    let (last_pos, idx) = member_indices(body, positions, bundle, true);
    let in_bundle: HashSet<ValueId> = bundle.iter().copied().collect();
    for (&m, &from) in bundle.iter().zip(&idx) {
        if !f.opcode(m).is_some_and(Opcode::is_memory) {
            continue;
        }
        for x in &body[from + 1..=last_pos] {
            if in_bundle.contains(x) {
                continue;
            }
            if f.opcode(*x).is_some_and(Opcode::is_memory) && mem_conflict(f, addr, m, *x) {
                return false;
            }
        }
    }
    true
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
    if bundle.iter().any(|&v| !positions.contains(v)) {
        return false;
    }
    if bundle.iter().any(|&v| f.opcode(v) != Some(Opcode::Load)) {
        return false;
    }
    if !ssa_independent(f, bundle) {
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
    let in_bundle: HashSet<ValueId> = bundle.iter().copied().collect();
    for (&m, &to) in bundle.iter().zip(&idx) {
        for x in &body[first_pos..to] {
            if in_bundle.contains(x) {
                continue;
            }
            if f.opcode(*x).is_some_and(Opcode::is_memory) && mem_conflict(f, addr, m, *x) {
                return false;
            }
        }
    }
    true
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
        let mut dead = HashSet::new();
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
