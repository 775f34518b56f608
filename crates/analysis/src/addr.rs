//! Symbolic address analysis ("SCEV-lite").
//!
//! Every pointer reachable through `gep` chains is decomposed into
//! `base + Σ coeffᵢ·varᵢ + const` (all in bytes). Two memory accesses are
//! *consecutive* when they share the base and variable terms and their
//! constant offsets differ by exactly the access size — the check the SLP
//! seed collection and load grouping rely on.

use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{Edit, Function, InlineVec, Opcode, PositionMap, UseMap, ValueId};

/// Inline capacity of [`LinExpr`]'s terms: addresses in straight-line
/// kernels carry one or two variables, so a few terms never allocate.
const INLINE_TERMS: usize = 4;

/// A linear integer expression `Σ coeffᵢ·varᵢ + konst` with opaque variables.
///
/// Terms are kept sorted by variable handle with no zero coefficients, so
/// structural equality is semantic equality of the symbolic form. Every
/// constructor and operation keeps that normal form, which is why the
/// terms are only readable from outside.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinExpr {
    terms: InlineVec<(ValueId, i64), INLINE_TERMS>,
    /// The constant part.
    pub konst: i64,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> LinExpr {
        LinExpr { terms: InlineVec::new(), konst: k }
    }

    /// The single-variable expression `v`.
    pub fn var(v: ValueId) -> LinExpr {
        LinExpr { terms: [(v, 1)].into_iter().collect(), konst: 0 }
    }

    /// The `(variable, coefficient)` pairs, sorted by variable, with
    /// non-zero coefficients.
    pub fn terms(&self) -> &[(ValueId, i64)] {
        &self.terms
    }

    /// `self + k·other`, as one merge of the two sorted term lists that
    /// sums the coefficients of shared variables and drops zero sums.
    fn merge(&self, other: &LinExpr, k: i64) -> LinExpr {
        let (a, b) = (self.terms(), other.terms());
        let mut terms = InlineVec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let (v, c) = match (a.get(i), b.get(j)) {
                (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                    i += 1;
                    j += 1;
                    (va, ca.wrapping_add(cb.wrapping_mul(k)))
                }
                (Some(&(va, ca)), Some(&(vb, _))) if va < vb => {
                    i += 1;
                    (va, ca)
                }
                (Some(&(va, ca)), None) => {
                    i += 1;
                    (va, ca)
                }
                (_, Some(&(vb, cb))) => {
                    j += 1;
                    (vb, cb.wrapping_mul(k))
                }
                (None, None) => unreachable!("loop condition"),
            };
            if c != 0 {
                terms.push((v, c));
            }
        }
        LinExpr { terms, konst: self.konst.wrapping_add(other.konst.wrapping_mul(k)) }
    }

    /// `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.merge(other, 1)
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.merge(other, -1)
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> LinExpr {
        LinExpr {
            terms: self
                .terms
                .iter()
                .map(|&(v, c)| (v, c.wrapping_mul(k)))
                .filter(|&(_, c)| c != 0)
                .collect(),
            konst: self.konst.wrapping_mul(k),
        }
    }

    /// Whether the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A symbolic byte address: an opaque `base` pointer plus a [`LinExpr`]
/// byte offset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AddrExpr {
    /// The pointer origin (typically a pointer parameter).
    pub base: ValueId,
    /// Byte offset from `base`.
    pub offset: LinExpr,
}

impl AddrExpr {
    /// The constant byte distance `other - self`, when both addresses share
    /// the base and the variable terms. `None` means "unknown distance".
    pub fn distance_to(&self, other: &AddrExpr) -> Option<i64> {
        // Both offsets are in normal form, so they differ by a constant
        // exactly when their terms are equal.
        (self.base == other.base && self.offset.terms == other.offset.terms)
            .then(|| other.offset.konst.wrapping_sub(self.offset.konst))
    }
}

/// One analyzed memory access: its address and size in bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemLoc {
    /// The symbolic address of the first byte.
    pub addr: AddrExpr,
    /// Access width in bytes.
    pub bytes: u32,
}

impl MemLoc {
    /// Whether `other` starts exactly where `self` ends (same symbolic
    /// region) — the "consecutive access" test of the paper.
    pub fn consecutive(&self, other: &MemLoc) -> bool {
        self.addr.distance_to(&other.addr) == Some(self.bytes as i64)
    }
}

/// Address analysis results for every load and store of a function.
///
/// Snapshot semantics: positions and addresses reflect the function at
/// [`AddrInfo::analyze`] time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddrInfo {
    locs: HashMap<ValueId, MemLoc>,
}

/// Bound on the expression-walk depth; beyond it addresses become opaque.
const MAX_DEPTH: u32 = 32;

fn linearize(f: &Function, v: ValueId, depth: u32) -> LinExpr {
    if depth == 0 {
        return LinExpr::var(v);
    }
    if let Some(c) = f.as_const(v).and_then(|c| c.as_int()) {
        return LinExpr::constant(c);
    }
    let Some(inst) = f.inst(v) else {
        return LinExpr::var(v);
    };
    let args = &inst.args;
    match inst.op {
        Opcode::Add => linearize(f, args[0], depth - 1).add(&linearize(f, args[1], depth - 1)),
        Opcode::Sub => linearize(f, args[0], depth - 1).sub(&linearize(f, args[1], depth - 1)),
        Opcode::Mul => {
            let a = linearize(f, args[0], depth - 1);
            let b = linearize(f, args[1], depth - 1);
            if a.is_constant() {
                b.scale(a.konst)
            } else if b.is_constant() {
                a.scale(b.konst)
            } else {
                LinExpr::var(v)
            }
        }
        Opcode::Shl => {
            let b = linearize(f, args[1], depth - 1);
            if b.is_constant() && (0..63).contains(&b.konst) {
                linearize(f, args[0], depth - 1).scale(1i64 << b.konst)
            } else {
                LinExpr::var(v)
            }
        }
        _ => LinExpr::var(v),
    }
}

fn pointer_addr(f: &Function, ptr: ValueId, depth: u32) -> AddrExpr {
    if depth == 0 {
        return AddrExpr { base: ptr, offset: LinExpr::constant(0) };
    }
    match f.inst(ptr) {
        Some(inst) if inst.op == Opcode::Gep => {
            let lslp_ir::InstAttr::ElemBytes(elem) = inst.attr else {
                unreachable!("gep without stride");
            };
            let base = pointer_addr(f, inst.args[0], depth - 1);
            let idx = linearize(f, inst.args[1], MAX_DEPTH).scale(elem as i64);
            AddrExpr { base: base.base, offset: base.offset.add(&idx) }
        }
        _ => AddrExpr { base: ptr, offset: LinExpr::constant(0) },
    }
}

/// The location a body instruction accesses, if it is a load or store.
fn access(f: &Function, v: ValueId) -> Option<MemLoc> {
    let inst = f.inst(v)?;
    let (ptr, ty) = match inst.op {
        Opcode::Load => (inst.args[0], inst.ty),
        Opcode::Store => (inst.args[1], f.ty(inst.args[0])),
        _ => return None,
    };
    Some(MemLoc { addr: pointer_addr(f, ptr, MAX_DEPTH), bytes: ty.bytes() })
}

/// Whether a user of a value can carry it into an address: the opcodes
/// [`linearize`] and [`pointer_addr`] walk through.
fn carries_address(op: Opcode) -> bool {
    matches!(op, Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Shl | Opcode::Gep)
}

impl AddrInfo {
    /// Analyze every load and store of the function body.
    pub fn analyze(f: &Function) -> AddrInfo {
        let locs = f.body().iter().filter_map(|&v| Some((v, access(f, v)?))).collect();
        AddrInfo { locs }
    }

    /// Bring the analysis up to date with `edits`, made to `f` since it
    /// was computed; `positions` and `uses` must already describe `f` as
    /// it is now. Inserted and removed accesses are added and dropped; a
    /// rewritten instruction re-analyzes every access its value reaches
    /// through address arithmetic (found through `uses`). Costs O(edits
    /// plus the address users of rewritten values).
    pub fn apply(
        &mut self,
        f: &Function,
        edits: &[Edit<'_>],
        positions: &PositionMap,
        uses: &UseMap,
    ) {
        let mut stale: Vec<ValueId> = Vec::new();
        let mut seen: HashSet<ValueId> = HashSet::default();
        let mut work: InlineVec<ValueId, 8> = InlineVec::new();
        for edit in edits {
            match *edit {
                Edit::Insert { v, .. } | Edit::Remove { v } => stale.push(v),
                Edit::Rewrite { v, .. } => {
                    // Every access downstream of `v`'s value, and `v`.
                    work.push(v);
                    while let Some(x) = work.pop() {
                        if !seen.insert(x) {
                            continue;
                        }
                        stale.push(x);
                        for u in uses.uses(x) {
                            if f.opcode(u.user).is_some_and(carries_address) {
                                work.push(u.user);
                            } else {
                                stale.push(u.user);
                            }
                        }
                    }
                }
            }
        }
        for v in stale {
            match positions.contains(v).then(|| access(f, v)).flatten() {
                Some(loc) => {
                    self.locs.insert(v, loc);
                }
                None => {
                    self.locs.remove(&v);
                }
            }
        }
    }

    /// The analyzed location of a load/store, if `v` is one.
    pub fn loc(&self, v: ValueId) -> Option<&MemLoc> {
        self.locs.get(&v)
    }

    /// Whether accesses `a` then `b` are consecutive (`b` starts where `a`
    /// ends). Returns `false` when either is unanalyzed.
    pub fn consecutive(&self, a: ValueId, b: ValueId) -> bool {
        match (self.loc(a), self.loc(b)) {
            (Some(la), Some(lb)) => la.consecutive(lb),
            _ => false,
        }
    }

    /// The constant byte distance from access `a` to access `b`, when known.
    pub fn distance(&self, a: ValueId, b: ValueId) -> Option<i64> {
        self.loc(a)?.addr.distance_to(&self.loc(b)?.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, ScalarType, Type};

    /// Builds `load A[i+o]` for each given offset and returns the load ids.
    fn loads_at(offsets: &[i64]) -> (Function, Vec<ValueId>) {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut ids = Vec::new();
        for &o in offsets {
            let mut b = FunctionBuilder::new(&mut f);
            let off = b.func().const_i64(o);
            let idx = b.add(i, off);
            let p = b.gep(a, idx, 8);
            ids.push(b.load(Type::F64, p));
        }
        (f, ids)
    }

    #[test]
    fn consecutive_loads_detected() {
        let (f, ids) = loads_at(&[0, 1, 2, 4]);
        let ai = AddrInfo::analyze(&f);
        assert!(ai.consecutive(ids[0], ids[1]));
        assert!(ai.consecutive(ids[1], ids[2]));
        assert!(!ai.consecutive(ids[2], ids[3]));
        assert!(!ai.consecutive(ids[1], ids[0]));
        assert_eq!(ai.distance(ids[0], ids[3]), Some(32));
    }

    #[test]
    fn different_bases_have_unknown_distance() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let b_ = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let pa = b.gep(a, i, 8);
        let pb = b.gep(b_, i, 8);
        let la = b.load(Type::F64, pa);
        let lb = b.load(Type::F64, pb);
        let ai = AddrInfo::analyze(&f);
        assert_eq!(ai.distance(la, lb), None);
        assert!(!ai.consecutive(la, lb));
    }

    #[test]
    fn scaled_and_shifted_indices_linearize() {
        // A[(i*2 + 3)] and A[(i<<1) + 4] with 4-byte elements: distance 4.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let two = b.func().const_i64(2);
        let three = b.func().const_i64(3);
        let one = b.func().const_i64(1);
        let four = b.func().const_i64(4);
        let m = b.mul(i, two);
        let idx1 = b.add(m, three);
        let p1 = b.gep(a, idx1, 4);
        let l1 = b.load(Type::Scalar(ScalarType::I32), p1);
        let sh = b.shl(i, one);
        let idx2 = b.add(sh, four);
        let p2 = b.gep(a, idx2, 4);
        let l2 = b.load(Type::Scalar(ScalarType::I32), p2);
        let ai = AddrInfo::analyze(&f);
        assert_eq!(ai.distance(l1, l2), Some(4));
        assert!(ai.consecutive(l1, l2));
    }

    #[test]
    fn nested_geps_accumulate() {
        // gep(gep(A, i, 8), 1, 8) == A + 8i + 8.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::F64, p0);
        let one = b.func().const_i64(1);
        let p1 = b.gep(p0, one, 8);
        let l1 = b.load(Type::F64, p1);
        let ai = AddrInfo::analyze(&f);
        assert!(ai.consecutive(l0, l1));
    }

    #[test]
    fn nonlinear_index_is_opaque_but_consistent() {
        // A[i*i] vs A[i*i]: same opaque term, distance 0.
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let sq = b.mul(i, i);
        let p1 = b.gep(a, sq, 8);
        let l1 = b.load(Type::F64, p1);
        let p2 = b.gep(a, sq, 8);
        let l2 = b.load(Type::F64, p2);
        let ai = AddrInfo::analyze(&f);
        assert_eq!(ai.distance(l1, l2), Some(0));
        assert!(!ai.consecutive(l1, l2));
    }

    #[test]
    fn store_sizes_follow_value_type() {
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::Scalar(ScalarType::I16));
        let mut b = FunctionBuilder::new(&mut f);
        let s = b.store(x, a);
        let ai = AddrInfo::analyze(&f);
        assert_eq!(ai.loc(s).unwrap().bytes, 2);
    }

    #[test]
    fn linexpr_algebra() {
        let v = ValueId::from_raw(1);
        let w = ValueId::from_raw(2);
        let e = LinExpr::var(v).scale(3).add(&LinExpr::var(w)).add(&LinExpr::constant(5));
        let f = e.sub(&LinExpr::var(w));
        assert_eq!(f.terms(), &[(v, 3)]);
        assert_eq!(f.konst, 5);
        let z = f.sub(&LinExpr::var(v).scale(3));
        assert!(z.is_constant());
        assert_eq!(z.konst, 5);
    }
}

#[cfg(test)]
mod negative_offset_tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    #[test]
    fn negative_offsets_and_subtracted_indices() {
        // A[i-1] and A[i] are consecutive; A[i-(j+1)] and A[i-j] are
        // consecutive too (symbolic subtraction).
        let mut f = Function::new("t");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let j = f.add_param("j", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let im1 = b.sub(i, one);
        let pm1 = b.gep(a, im1, 8);
        let lm1 = b.load(Type::F64, pm1);
        let p0 = b.gep(a, i, 8);
        let l0 = b.load(Type::F64, p0);
        let jp1 = b.add(j, one);
        let imj1 = b.sub(i, jp1);
        let pj1 = b.gep(a, imj1, 8);
        let lj1 = b.load(Type::F64, pj1);
        let imj = b.sub(i, j);
        let pj = b.gep(a, imj, 8);
        let lj = b.load(Type::F64, pj);
        let ai = AddrInfo::analyze(&f);
        assert!(ai.consecutive(lm1, l0));
        assert_eq!(ai.distance(l0, lm1), Some(-8));
        assert!(ai.consecutive(lj1, lj));
        assert_eq!(ai.distance(lj, lj1), Some(-8));
    }
}

#[cfg(test)]
mod algebra_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::test_rng::Rng;

    /// The normalize-based algebra the sorted merge replaced: concatenate
    /// the term lists, sort by variable, sum equal variables, drop zeros.
    mod reference {
        use lslp_ir::ValueId;

        pub type Terms = Vec<(ValueId, i64)>;

        fn normalize(mut terms: Terms) -> Terms {
            terms.sort_by_key(|&(v, _)| v);
            let mut out: Terms = Vec::with_capacity(terms.len());
            for (v, c) in terms {
                match out.last_mut() {
                    Some((lv, lc)) if *lv == v => *lc = lc.wrapping_add(c),
                    _ => out.push((v, c)),
                }
            }
            out.retain(|&(_, c)| c != 0);
            out
        }

        pub fn add(a: &Terms, b: &Terms) -> Terms {
            normalize(a.iter().chain(b).copied().collect())
        }

        pub fn sub(a: &Terms, b: &Terms) -> Terms {
            normalize(
                a.iter().copied().chain(b.iter().map(|&(v, c)| (v, c.wrapping_neg()))).collect(),
            )
        }

        pub fn scale(a: &Terms, k: i64) -> Terms {
            normalize(a.iter().map(|&(v, c)| (v, c.wrapping_mul(k))).collect())
        }
    }

    /// Coefficients that stress wrapping and cancellation: extremes, small
    /// values that cancel each other, and powers of two whose products
    /// wrap to zero.
    fn coeff(r: &mut Rng) -> i64 {
        match r.below(6) {
            0 => [i64::MIN, i64::MAX, -1, 1][r.below(4)],
            1 => 1i64 << r.below(63),
            2 => -(1i64 << r.below(63)),
            3 => r.next() as i64,
            _ => r.below(7) as i64 - 3,
        }
    }

    /// A normalized expression of 0–6 terms over 8 variables, built with
    /// the operations under test so it is in normal form, plus the same
    /// terms under the reference algebra.
    fn expr(r: &mut Rng) -> (LinExpr, reference::Terms) {
        let mut e = LinExpr::constant(coeff(r));
        let mut terms = Vec::new();
        for _ in 0..r.below(7) {
            let v = ValueId::from_raw(r.below(8) as u32);
            let c = coeff(r);
            e = e.add(&LinExpr::var(v).scale(c));
            terms = reference::add(&terms, &reference::scale(&vec![(v, 1)], c));
        }
        (e, terms)
    }

    fn check(e: &LinExpr, want: &reference::Terms, konst: i64) {
        assert_eq!(e.terms(), &want[..]);
        assert_eq!(e.konst, konst);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        #[test]
        fn merge_matches_the_normalizing_algebra(seed in any::<u64>()) {
            let mut r = Rng(seed);
            let (a, ta) = expr(&mut r);
            let (b, tb) = expr(&mut r);
            check(&a, &ta, a.konst);
            let k = coeff(&mut r);
            check(&a.add(&b), &reference::add(&ta, &tb), a.konst.wrapping_add(b.konst));
            check(&a.sub(&b), &reference::sub(&ta, &tb), a.konst.wrapping_sub(b.konst));
            check(&a.scale(k), &reference::scale(&ta, k), a.konst.wrapping_mul(k));
            // Cancellation: an expression minus itself is the constant 0.
            let z = a.sub(&a);
            prop_assert!(z.is_constant() && z.konst == 0);
            for (base_a, base_b) in [(0, 0), (0, 1)] {
                let x = AddrExpr { base: ValueId::from_raw(100 + base_a), offset: a.clone() };
                let y = AddrExpr { base: ValueId::from_raw(100 + base_b), offset: b.clone() };
                let d = reference::sub(&tb, &ta);
                let want = (base_a == base_b && d.is_empty())
                    .then(|| b.konst.wrapping_sub(a.konst));
                prop_assert_eq!(x.distance_to(&y), want);
            }
            let at = |offset: LinExpr| AddrExpr { base: ValueId::from_raw(7), offset };
            prop_assert_eq!(at(a.clone()).distance_to(&at(a.add(&LinExpr::constant(k)))), Some(k));
        }
    }

    #[test]
    fn terms_spill_past_the_inline_capacity_and_cancel_back() {
        let vars: Vec<LinExpr> = (0..6).map(|i| LinExpr::var(ValueId::from_raw(i))).collect();
        let mut e = LinExpr::constant(3);
        for v in &vars {
            e = e.add(&v.scale(i64::MIN));
        }
        assert_eq!(e.terms().len(), 6);
        assert!(e.terms().len() > INLINE_TERMS, "the terms spill past the inline capacity");
        // i64::MIN + i64::MIN wraps to 0: every term cancels.
        let z = e.add(&e);
        assert!(z.is_constant(), "{z:?}");
        assert_eq!(z.konst, 6);
        // Scaling by 2 wraps every i64::MIN coefficient to zero too.
        assert_eq!(e.scale(2), LinExpr::constant(6));
        let back = vars.iter().fold(e.clone(), |acc, v| acc.sub(&v.scale(i64::MIN)));
        assert_eq!(back, LinExpr::constant(3));
        let base = ValueId::from_raw(100);
        let at = |offset: LinExpr| AddrExpr { base, offset };
        assert_eq!(at(e.clone()).distance_to(&at(e.add(&LinExpr::constant(-5)))), Some(-5));
    }
}
