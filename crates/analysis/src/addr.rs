//! Symbolic address analysis ("SCEV-lite").
//!
//! Every pointer reachable through `gep` chains is decomposed into
//! `base + Σ coeffᵢ·varᵢ + const` (all in bytes). Two memory accesses are
//! *consecutive* when they share the base and variable terms and their
//! constant offsets differ by exactly the access size — the check the SLP
//! seed collection and load grouping rely on.

use std::collections::{HashMap, HashSet};

use lslp_ir::{Edit, Function, Opcode, PositionMap, UseMap, ValueId};

/// A linear integer expression `Σ coeffᵢ·varᵢ + konst` with opaque variables.
///
/// Terms are kept sorted by variable handle with no zero coefficients, so
/// structural equality is semantic equality of the symbolic form.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` pairs, sorted by variable, coefficients
    /// non-zero.
    pub terms: Vec<(ValueId, i64)>,
    /// The constant part.
    pub konst: i64,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> LinExpr {
        LinExpr { terms: Vec::new(), konst: k }
    }

    /// The single-variable expression `v`.
    pub fn var(v: ValueId) -> LinExpr {
        LinExpr { terms: vec![(v, 1)], konst: 0 }
    }

    fn normalize(mut self) -> LinExpr {
        self.terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(ValueId, i64)> = Vec::with_capacity(self.terms.len());
        for (v, c) in self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc = lc.wrapping_add(c),
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0);
        self.terms = out;
        self
    }

    /// `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut terms = self.terms.clone();
        terms.extend_from_slice(&other.terms);
        LinExpr { terms, konst: self.konst.wrapping_add(other.konst) }.normalize()
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().map(|&(v, c)| (v, c.wrapping_neg())));
        LinExpr { terms, konst: self.konst.wrapping_sub(other.konst) }.normalize()
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> LinExpr {
        LinExpr {
            terms: self.terms.iter().map(|&(v, c)| (v, c.wrapping_mul(k))).collect(),
            konst: self.konst.wrapping_mul(k),
        }
        .normalize()
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
        if self.base != other.base {
            return None;
        }
        let d = other.offset.sub(&self.offset);
        d.is_constant().then_some(d.konst)
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
        let mut seen: HashSet<ValueId> = HashSet::new();
        for edit in edits {
            match *edit {
                Edit::Insert { v, .. } | Edit::Remove { v } => stale.push(v),
                Edit::Rewrite { v, .. } => {
                    // Every access downstream of `v`'s value, and `v`.
                    let mut work = vec![v];
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
        assert_eq!(f.terms, vec![(v, 3)]);
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
