//! Algebraic simplification ("instcombine-lite").
//!
//! Strength-reduces identities (`x+0`, `x*1`, `x&x`, `x^x`, …) and
//! canonicalizes commutative operations to put constants on the right,
//! which improves both CSE hit rates and the vectorizer's operand matching
//! (mirroring LLVM's canonicalization, which the paper's kernels were
//! subject to before reaching the SLP pass).

use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{Constant, Function, Module, Opcode, ValueId};

use crate::fold::resolve_operands;

/// What a simplification round did to one instruction.
enum Action {
    /// Replace all uses with an existing value.
    Replace(ValueId),
    /// Replace all uses with a constant.
    ReplaceConst(Constant),
    /// Swap the two operands (canonicalization).
    SwapOperands,
}

fn is_const_zero(f: &Function, v: ValueId) -> bool {
    f.as_const(v).is_some_and(Constant::is_zero)
}

fn is_const_int(f: &Function, v: ValueId, k: i64) -> bool {
    f.as_const(v).and_then(Constant::as_int) == Some(k)
}

fn is_const_float(f: &Function, v: ValueId, k: f64) -> bool {
    f.as_const(v).and_then(|c| c.as_f64()) == Some(k)
}

fn simplify_inst(f: &Function, id: ValueId, fast_math: bool) -> Option<Action> {
    let inst = f.inst(id)?;
    if inst.ty.is_vector() {
        return None;
    }
    let elem = inst.ty.elem()?;
    let (a, b) = match inst.args.as_slice() {
        [a, b] => (*a, *b),
        [c, x, y] if inst.op == Opcode::Select => {
            return (x == y).then_some(Action::Replace(*x)).or_else(|| {
                f.as_const(*c)
                    .and_then(Constant::as_int)
                    .map(|cv| Action::Replace(if cv != 0 { *x } else { *y }))
            });
        }
        _ => return None,
    };
    let zero_int = || Action::ReplaceConst(Constant::int(elem, 0));
    match inst.op {
        Opcode::Add => {
            if is_const_int(f, b, 0) {
                Some(Action::Replace(a))
            } else if is_const_int(f, a, 0) {
                Some(Action::Replace(b))
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::Sub => {
            if is_const_int(f, b, 0) {
                Some(Action::Replace(a))
            } else if a == b {
                Some(zero_int())
            } else {
                None
            }
        }
        Opcode::Mul => {
            if is_const_int(f, b, 1) {
                Some(Action::Replace(a))
            } else if is_const_int(f, a, 1) {
                Some(Action::Replace(b))
            } else if is_const_zero(f, a) || is_const_zero(f, b) {
                Some(zero_int())
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::And => {
            if a == b || is_const_int(f, b, -1) {
                Some(Action::Replace(a))
            } else if is_const_int(f, a, -1) {
                Some(Action::Replace(b))
            } else if is_const_zero(f, a) || is_const_zero(f, b) {
                Some(zero_int())
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::Or => {
            if a == b || is_const_zero(f, b) {
                Some(Action::Replace(a))
            } else if is_const_zero(f, a) {
                Some(Action::Replace(b))
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::Xor => {
            if a == b {
                Some(zero_int())
            } else if is_const_zero(f, b) {
                Some(Action::Replace(a))
            } else if is_const_zero(f, a) {
                Some(Action::Replace(b))
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::Shl | Opcode::LShr | Opcode::AShr => {
            is_const_int(f, b, 0).then_some(Action::Replace(a))
        }
        Opcode::SDiv | Opcode::UDiv => is_const_int(f, b, 1).then_some(Action::Replace(a)),
        // Float identities: exact only where IEEE-754 guarantees them;
        // the rest require fast-math (x+0.0 maps -0.0 to +0.0, x*0.0 can
        // hide NaNs).
        Opcode::FMul => {
            if is_const_float(f, b, 1.0) {
                Some(Action::Replace(a))
            } else if is_const_float(f, a, 1.0) {
                Some(Action::Replace(b))
            } else if fast_math && (is_const_float(f, a, 0.0) || is_const_float(f, b, 0.0)) {
                Some(Action::ReplaceConst(Constant::float(elem, 0.0)))
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::FAdd => {
            if fast_math && is_const_float(f, b, 0.0) {
                Some(Action::Replace(a))
            } else if fast_math && is_const_float(f, a, 0.0) {
                Some(Action::Replace(b))
            } else if f.is_const(a) && !f.is_const(b) {
                Some(Action::SwapOperands)
            } else {
                None
            }
        }
        Opcode::FSub => {
            if fast_math && is_const_float(f, b, 0.0) {
                Some(Action::Replace(a))
            } else {
                None
            }
        }
        Opcode::FDiv => is_const_float(f, b, 1.0).then_some(Action::Replace(a)),
        _ => None,
    }
}

/// Run algebraic simplification to a fixed point; returns the number of
/// rewrites performed. Each sweep ends with one batched use rewrite, and
/// the replaced instructions leave the body then; other dead instructions
/// are left for [`crate::dce::run`].
pub fn run(f: &mut Function, fast_math: bool) -> usize {
    let mut rewrites = 0;
    loop {
        let mut replaced = HashMap::default();
        for id in f.body().to_vec() {
            resolve_operands(f, id, &replaced);
            match simplify_inst(f, id, fast_math) {
                Some(Action::Replace(v)) => {
                    replaced.insert(id, v);
                }
                Some(Action::ReplaceConst(c)) => {
                    let k = f.constant(c);
                    replaced.insert(id, k);
                }
                Some(Action::SwapOperands) => {
                    let inst = f.inst_mut(id).expect("instruction");
                    inst.args.swap(0, 1);
                    rewrites += 1;
                    // Swapping is done at most once per instruction (the
                    // constant moves right and stays there), so it does not
                    // prevent termination and needs no further sweep.
                }
                None => {}
            }
        }
        if replaced.is_empty() {
            return rewrites;
        }
        rewrites += replaced.len();
        f.replace_uses_with(&replaced);
        f.remove_from_body(&replaced.into_keys().collect::<HashSet<_>>());
    }
}

/// Simplify every function of a module.
pub fn run_module(m: &mut Module, fast_math: bool) -> usize {
    m.functions.iter_mut().map(|f| run(f, fast_math)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, ScalarType, Type};

    fn text(f: &Function) -> String {
        lslp_ir::print_function(f)
    }

    #[test]
    fn additive_and_multiplicative_identities() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let zero = b.func().const_i64(0);
        let one = b.func().const_i64(1);
        let a = b.add(x, zero);
        let m = b.mul(a, one);
        b.store(m, p);
        assert_eq!(run(&mut f, false), 2);
        assert!(text(&f).contains("store i64 %x"), "{}", text(&f));
    }

    #[test]
    fn xor_and_sub_self_cancel() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let a = b.xor(x, x);
        let s = b.sub(x, x);
        let t = b.or(a, s);
        b.store(t, p);
        run(&mut f, false);
        crate::dce::run(&mut f);
        assert!(text(&f).contains("store i64 0"), "{}", text(&f));
        assert_eq!(f.body_len(), 1);
    }

    #[test]
    fn constants_canonicalize_right() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let c = b.func().const_i64(5);
        let a = b.add(c, x); // 5 + x  →  x + 5
        b.store(a, p);
        assert_eq!(run(&mut f, false), 1);
        assert!(text(&f).contains("add i64 %x, 5"), "{}", text(&f));
    }

    #[test]
    fn float_identities_respect_fast_math() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::F64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let z = b.func().const_float(ScalarType::F64, 0.0);
        let one = b.func().const_float(ScalarType::F64, 1.0);
        let a = b.fadd(x, z);
        let m = b.fmul(a, one);
        b.store(m, p);
        // Strict: only x*1.0 folds (exact), x+0.0 stays.
        let mut strict = f.clone();
        run(&mut strict, false);
        assert!(text(&strict).contains("fadd"), "{}", text(&strict));
        assert!(!text(&strict).contains("fmul"), "{}", text(&strict));
        // Fast-math: both fold.
        run(&mut f, true);
        crate::dce::run(&mut f);
        assert!(text(&f).contains("store f64 %x"), "{}", text(&f));
    }

    #[test]
    fn select_same_arms_collapses() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let c = b.icmp(lslp_ir::IntPred::Slt, x, y);
        let s = b.select(c, x, x);
        b.store(s, p);
        run(&mut f, false);
        crate::dce::run(&mut f);
        assert!(text(&f).contains("store i64 %x"), "{}", text(&f));
    }

    #[test]
    fn shifts_and_divisions_by_unit() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let zero = b.func().const_i64(0);
        let one = b.func().const_i64(1);
        let s = b.shl(x, zero);
        let d = b.sdiv(s, one);
        b.store(d, p);
        assert_eq!(run(&mut f, false), 2);
        assert!(text(&f).contains("store i64 %x"), "{}", text(&f));
    }
}
