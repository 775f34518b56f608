//! Constant folding.
//!
//! Replaces instructions whose operands are all constants with interned
//! constants. Together with [`crate::simplify`], [`crate::cse`] and
//! [`crate::dce`] this forms the scalar `-O3`-style pipeline that precedes
//! the vectorizer (see [`crate::pipeline`]).

use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{
    Constant, FloatPred, Function, InstAttr, IntPred, Module, Opcode, ScalarType, ValueId,
};

fn sext(v: i64, bits: u32) -> i64 {
    if bits >= 64 {
        v
    } else {
        (v << (64 - bits)) >> (64 - bits)
    }
}

fn zext(v: i64, bits: u32) -> u64 {
    if bits >= 64 {
        v as u64
    } else {
        (v as u64) & ((1u64 << bits) - 1)
    }
}

/// Evaluate an integer binary op with wrapping semantics; `None` when the
/// operation traps (division by zero) and must be left in place.
fn eval_int(op: Opcode, bits: u32, a: i64, b: i64) -> Option<i64> {
    let shift = (b & (bits - 1) as i64) as u32;
    let r = match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::SDiv => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        Opcode::UDiv => {
            if b == 0 {
                return None;
            }
            (zext(a, bits) / zext(b, bits)) as i64
        }
        Opcode::SRem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        Opcode::URem => {
            if b == 0 {
                return None;
            }
            (zext(a, bits) % zext(b, bits)) as i64
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl(shift),
        Opcode::LShr => (zext(a, bits) >> shift) as i64,
        Opcode::AShr => sext(a, bits) >> shift,
        Opcode::SMin => a.min(b),
        Opcode::SMax => a.max(b),
        _ => return None,
    };
    Some(sext(r, bits))
}

fn eval_float(op: Opcode, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        Opcode::FAdd => a + b,
        Opcode::FSub => a - b,
        Opcode::FMul => a * b,
        Opcode::FDiv => a / b,
        Opcode::FMin => a.min(b),
        Opcode::FMax => a.max(b),
        _ => return None,
    })
}

fn eval_icmp(p: IntPred, bits: u32, a: i64, b: i64) -> bool {
    let (ua, ub) = (zext(a, bits), zext(b, bits));
    match p {
        IntPred::Eq => a == b,
        IntPred::Ne => a != b,
        IntPred::Slt => a < b,
        IntPred::Sle => a <= b,
        IntPred::Sgt => a > b,
        IntPred::Sge => a >= b,
        IntPred::Ult => ua < ub,
        IntPred::Ule => ua <= ub,
        IntPred::Ugt => ua > ub,
        IntPred::Uge => ua >= ub,
    }
}

fn eval_fcmp(p: FloatPred, a: f64, b: f64) -> bool {
    match p {
        FloatPred::Oeq => a == b,
        FloatPred::One => a != b && !a.is_nan() && !b.is_nan(),
        FloatPred::Olt => a < b,
        FloatPred::Ole => a <= b,
        FloatPred::Ogt => a > b,
        FloatPred::Oge => a >= b,
    }
}

fn fold_scalar(
    op: Opcode,
    ty: ScalarType,
    attr: &InstAttr,
    a: &Constant,
    b: &Constant,
) -> Option<Constant> {
    match (op, attr) {
        (Opcode::ICmp, InstAttr::IntPred(p)) => {
            let bits = a.scalar_ty()?.bits();
            Some(Constant::int(
                ScalarType::I8,
                eval_icmp(*p, bits, a.as_int()?, b.as_int()?) as i64,
            ))
        }
        (Opcode::FCmp, InstAttr::FloatPred(p)) => {
            Some(Constant::int(ScalarType::I8, eval_fcmp(*p, a.as_f64()?, b.as_f64()?) as i64))
        }
        _ if ty.is_float() => {
            let r = eval_float(op, a.as_f64()?, b.as_f64()?)?;
            Some(Constant::float(ty, if ty == ScalarType::F32 { r as f32 as f64 } else { r }))
        }
        _ if ty.is_int() => {
            Some(Constant::int(ty, eval_int(op, ty.bits(), a.as_int()?, b.as_int()?)?))
        }
        _ => None,
    }
}

/// Fold one instruction's constant result, if computable.
fn fold_inst(f: &Function, id: ValueId) -> Option<Constant> {
    let inst = f.inst(id)?;
    let consts: Option<Vec<&Constant>> = inst.args.iter().map(|&a| f.as_const(a)).collect();
    let consts = consts?;
    match inst.op {
        op if op.is_binary() || matches!(op, Opcode::ICmp | Opcode::FCmp) => {
            let elem = match op {
                Opcode::ICmp | Opcode::FCmp => f.ty(inst.args[0]).elem()?,
                _ => inst.ty.elem()?,
            };
            if inst.ty.is_vector() {
                return None; // vector folding handled lane-wise elsewhere
            }
            fold_scalar(op, elem, &inst.attr, consts[0], consts[1])
        }
        Opcode::Select => {
            let c = consts[0].as_int()?;
            Some(if c != 0 { consts[1].clone() } else { consts[2].clone() })
        }
        op if op.is_cast() => {
            if inst.ty.is_vector() {
                return None;
            }
            let dst = inst.ty.elem()?;
            let src = f.ty(inst.args[0]).elem()?;
            match op {
                Opcode::Sext | Opcode::Trunc => Some(Constant::int(dst, consts[0].as_int()?)),
                Opcode::Zext => {
                    let bits = src.bits();
                    let z = if bits >= 64 {
                        consts[0].as_int()? as u64
                    } else {
                        (consts[0].as_int()? as u64) & ((1u64 << bits) - 1)
                    };
                    Some(Constant::int(dst, z as i64))
                }
                Opcode::Sitofp => Some(Constant::float(dst, consts[0].as_int()? as f64)),
                Opcode::Fpext => Some(Constant::float(dst, consts[0].as_f64()?)),
                Opcode::Fptrunc => Some(Constant::float(dst, consts[0].as_f64()? as f32 as f64)),
                // fptosi saturation duplicated from the interpreter would be
                // another source of divergence; leave it to runtime.
                _ => None,
            }
        }
        _ => None,
    }
}

/// Rewrite `id`'s operands through `replaced`, the replacements found so
/// far in the current sweep, so `id` is examined as if each had already
/// been applied to every use. Instructions with no replaced operand are
/// left untouched.
pub(crate) fn resolve_operands(
    f: &mut Function,
    id: ValueId,
    replaced: &HashMap<ValueId, ValueId>,
) {
    if !f.args_of(id).iter().any(|a| replaced.contains_key(a)) {
        return;
    }
    let inst = f.inst_mut(id).expect("the body holds instructions");
    for arg in &mut inst.args {
        if let Some(&new) = replaced.get(arg) {
            *arg = new;
        }
    }
}

/// Run constant folding to a fixed point; returns the number of
/// instructions folded. Each sweep ends with one batched use rewrite, and
/// the folded instructions leave the body then so repeated sweeps
/// terminate; [`crate::dce::run`] sweeps any other dead code.
pub fn run(f: &mut Function) -> usize {
    let mut folded = 0;
    loop {
        let mut replaced = HashMap::default();
        for id in f.body().to_vec() {
            resolve_operands(f, id, &replaced);
            if let Some(c) = fold_inst(f, id) {
                let k = f.constant(c);
                replaced.insert(id, k);
            }
        }
        if replaced.is_empty() {
            return folded;
        }
        folded += replaced.len();
        f.replace_uses_with(&replaced);
        f.remove_from_body(&replaced.into_keys().collect::<HashSet<_>>());
    }
}

/// Fold every function of a module; returns total folds.
pub fn run_module(m: &mut Module) -> usize {
    m.functions.iter_mut().map(run).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    #[test]
    fn folds_integer_chains() {
        let mut f = Function::new("t");
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let c2 = b.func().const_i64(2);
        let c3 = b.func().const_i64(3);
        let x = b.add(c2, c3); // 5
        let y = b.mul(x, x); // 25
        b.store(y, p);
        assert_eq!(run(&mut f), 2);
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("store i64 25"), "{text}");
    }

    #[test]
    fn folds_float_and_cmp_and_select() {
        let mut f = Function::new("t");
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.func().const_float(ScalarType::F64, 0.5);
        let q = b.func().const_float(ScalarType::F64, 0.25);
        let s = b.fadd(h, q); // 0.75
        let c = b.fcmp(FloatPred::Ogt, s, q); // true
        let one = b.func().const_i64(1);
        let two = b.func().const_i64(2);
        let m = b.select(c, one, two); // 1
        b.store(m, p);
        assert_eq!(run(&mut f), 3);
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("store i64 1"), "{text}");
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let mut f = Function::new("t");
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let c1 = b.func().const_i64(1);
        let c0 = b.func().const_i64(0);
        let d = b.sdiv(c1, c0);
        b.store(d, p);
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.body_len(), 2);
    }

    #[test]
    fn narrow_widths_wrap() {
        let mut f = Function::new("t");
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let a = b.func().const_int(ScalarType::I8, 100);
        let c = b.func().const_int(ScalarType::I8, 100);
        let s = b.add(a, c); // 200 wraps to -56
        b.store(s, p);
        run(&mut f);
        let text = lslp_ir::print_function(&f);
        assert!(text.contains("store i8 -56"), "{text}");
    }

    #[test]
    fn non_constant_operands_are_left_alone() {
        let mut f = Function::new("t");
        let x = f.add_param("x", Type::I64);
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let c = b.func().const_i64(3);
        let s = b.add(x, c);
        b.store(s, p);
        assert_eq!(run(&mut f), 0);
    }
}
