//! Ergonomic instruction construction.

use crate::function::Function;
use crate::inst::{FloatPred, InstAttr, IntPred, Opcode};
use crate::types::{ScalarType, Type};
use crate::value::ValueId;

/// A convenience wrapper that appends instructions to a [`Function`],
/// inferring result types from operands.
///
/// ```
/// use lslp_ir::{Function, FunctionBuilder, Type};
///
/// let mut f = Function::new("sum");
/// let a = f.add_param("a", Type::I64);
/// let b = f.add_param("b", Type::I64);
/// let mut bld = FunctionBuilder::new(&mut f);
/// let s = bld.add(a, b);
/// assert_eq!(f.ty(s), Type::I64);
/// ```
pub struct FunctionBuilder<'f> {
    f: &'f mut Function,
}

macro_rules! binop_method {
    ($(#[$doc:meta])* $name:ident, $op:ident) => {
        $(#[$doc])*
        pub fn $name(&mut self, a: ValueId, b: ValueId) -> ValueId {
            self.binop(Opcode::$op, a, b)
        }
    };
}

impl<'f> FunctionBuilder<'f> {
    /// Wrap a function for appending.
    pub fn new(f: &'f mut Function) -> FunctionBuilder<'f> {
        FunctionBuilder { f }
    }

    /// Access the underlying function (e.g. to intern constants).
    pub fn func(&mut self) -> &mut Function {
        self.f
    }

    /// Append a binary instruction whose result type is the type of `a`.
    pub fn binop(&mut self, op: Opcode, a: ValueId, b: ValueId) -> ValueId {
        debug_assert!(op.is_binary(), "binop() requires a binary opcode");
        let ty = self.f.ty(a);
        self.f.push(op, ty, [a, b], InstAttr::None)
    }

    binop_method!(/// Integer add.
        add, Add);
    binop_method!(/// Integer subtract.
        sub, Sub);
    binop_method!(/// Integer multiply.
        mul, Mul);
    binop_method!(/// Signed division.
        sdiv, SDiv);
    binop_method!(/// Unsigned division.
        udiv, UDiv);
    binop_method!(/// Signed remainder.
        srem, SRem);
    binop_method!(/// Unsigned remainder.
        urem, URem);
    binop_method!(/// Bitwise and.
        and, And);
    binop_method!(/// Bitwise or.
        or, Or);
    binop_method!(/// Bitwise xor.
        xor, Xor);
    binop_method!(/// Shift left.
        shl, Shl);
    binop_method!(/// Logical shift right.
        lshr, LShr);
    binop_method!(/// Arithmetic shift right.
        ashr, AShr);
    binop_method!(/// Signed minimum.
        smin, SMin);
    binop_method!(/// Signed maximum.
        smax, SMax);
    binop_method!(/// Float add.
        fadd, FAdd);
    binop_method!(/// Float subtract.
        fsub, FSub);
    binop_method!(/// Float multiply.
        fmul, FMul);
    binop_method!(/// Float division.
        fdiv, FDiv);
    binop_method!(/// Float minimum.
        fmin, FMin);
    binop_method!(/// Float maximum.
        fmax, FMax);

    /// Integer comparison; the result is `i8` with the operand lane count.
    pub fn icmp(&mut self, pred: IntPred, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.f.ty(a).with_lanes(self.f.ty(a).lanes().max(1));
        let rty = match ty {
            Type::Vector(_, n) => Type::Vector(ScalarType::I8, n),
            _ => Type::Scalar(ScalarType::I8),
        };
        self.f.push(Opcode::ICmp, rty, [a, b], InstAttr::IntPred(pred))
    }

    /// Float comparison; the result is `i8` with the operand lane count.
    pub fn fcmp(&mut self, pred: FloatPred, a: ValueId, b: ValueId) -> ValueId {
        let rty = match self.f.ty(a) {
            Type::Vector(_, n) => Type::Vector(ScalarType::I8, n),
            _ => Type::Scalar(ScalarType::I8),
        };
        self.f.push(Opcode::FCmp, rty, [a, b], InstAttr::FloatPred(pred))
    }

    /// Lanewise select: `cond != 0 ? a : b`.
    pub fn select(&mut self, cond: ValueId, a: ValueId, b: ValueId) -> ValueId {
        let ty = self.f.ty(a);
        self.f.push(Opcode::Select, ty, [cond, a, b], InstAttr::None)
    }

    /// A unary conversion instruction with the given destination type.
    pub fn cast(&mut self, op: Opcode, v: ValueId, dst: Type) -> ValueId {
        debug_assert!(op.is_cast(), "cast() requires a conversion opcode");
        self.f.push(op, dst, [v], InstAttr::None)
    }

    /// Pointer arithmetic: `base + index * elem_bytes`.
    pub fn gep(&mut self, base: ValueId, index: ValueId, elem_bytes: u32) -> ValueId {
        self.f.push(Opcode::Gep, Type::PTR, [base, index], InstAttr::ElemBytes(elem_bytes))
    }

    /// Load a value of type `ty` from `ptr`.
    pub fn load(&mut self, ty: Type, ptr: ValueId) -> ValueId {
        self.f.push(Opcode::Load, ty, [ptr], InstAttr::None)
    }

    /// Store `val` to `ptr`.
    pub fn store(&mut self, val: ValueId, ptr: ValueId) -> ValueId {
        self.f.push(Opcode::Store, Type::Void, [val, ptr], InstAttr::None)
    }

    /// Extract lane `lane` of vector `vec`.
    pub fn extract(&mut self, vec: ValueId, lane: u32) -> ValueId {
        let elem = self.f.ty(vec).elem().expect("extractelement needs a vector operand");
        let idx = self.f.const_i64(lane as i64);
        self.f.push(Opcode::ExtractElement, Type::Scalar(elem), [vec, idx], InstAttr::None)
    }

    /// Insert scalar `val` into lane `lane` of vector `vec`.
    pub fn insert(&mut self, vec: ValueId, val: ValueId, lane: u32) -> ValueId {
        let ty = self.f.ty(vec);
        let idx = self.f.const_i64(lane as i64);
        self.f.push(Opcode::InsertElement, ty, [vec, val, idx], InstAttr::None)
    }

    /// Shuffle lanes of `a` and `b` (mask indexes their concatenation).
    pub fn shuffle(&mut self, a: ValueId, b: ValueId, mask: Vec<u32>) -> ValueId {
        let elem = self.f.ty(a).elem().expect("shufflevector needs vectors");
        let ty = Type::Vector(elem, mask.len() as u32);
        self.f.push(Opcode::ShuffleVector, ty, [a, b], InstAttr::Mask(mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_function;

    #[test]
    fn builds_verified_scalar_code() {
        let mut f = Function::new("k");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let p = b.gep(a, i, 8);
        let v = b.load(Type::F64, p);
        let c = b.func().const_float(ScalarType::F64, 2.0);
        let d = b.fmul(v, c);
        b.store(d, p);
        assert!(verify_function(&f).is_ok());
        assert_eq!(f.body_len(), 4);
    }

    #[test]
    fn builds_verified_vector_code() {
        let mut f = Function::new("v");
        let a = f.add_param("A", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let vty = Type::Vector(ScalarType::F64, 2);
        let v = b.load(vty, a);
        let s = b.extract(v, 1);
        let v2 = b.insert(v, s, 0);
        let v3 = b.shuffle(v2, v2, vec![1, 0]);
        b.store(v3, a);
        assert!(verify_function(&f).is_ok());
    }

    #[test]
    fn cmp_and_select_types() {
        let mut f = Function::new("c");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let c = b.icmp(IntPred::Slt, x, y);
        let m = b.select(c, x, y);
        assert_eq!(f.ty(c), Type::Scalar(ScalarType::I8));
        assert_eq!(f.ty(m), Type::I64);
        assert!(verify_function(&f).is_ok());
    }
}
