//! Instruction opcodes, attributes, and the instruction record.

use std::fmt;

use crate::inline::InlineVec;
use crate::types::Type;
use crate::value::ValueId;

/// An instruction's operand list: three in place, which every opcode
/// fits (`select`, `insertelement`), so creating, cloning or logging an
/// instruction allocates nothing for its operands. A longer list moves to
/// the heap, so a malformed arity stays representable for the verifier
/// to reject.
pub type Operands = InlineVec<ValueId, 3>;

/// Instruction opcodes.
///
/// Binary arithmetic/logic opcodes take two operands of the instruction's
/// type; memory opcodes follow the shapes documented per variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Opcode {
    // Integer arithmetic.
    /// Wrapping integer add (commutative, associative).
    Add,
    /// Wrapping integer subtract.
    Sub,
    /// Wrapping integer multiply (commutative, associative).
    Mul,
    /// Signed integer division.
    SDiv,
    /// Unsigned integer division.
    UDiv,
    /// Signed remainder.
    SRem,
    /// Unsigned remainder.
    URem,
    // Bitwise.
    /// Bitwise and (commutative, associative).
    And,
    /// Bitwise or (commutative, associative).
    Or,
    /// Bitwise xor (commutative, associative).
    Xor,
    /// Shift left; the shift amount is masked to the type width.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    // Integer min/max.
    /// Signed minimum (commutative, associative).
    SMin,
    /// Signed maximum (commutative, associative).
    SMax,
    // Floating point.
    /// Float add (commutative; associative only under fast-math).
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply (commutative; associative only under fast-math).
    FMul,
    /// Float division.
    FDiv,
    /// Float minimum (commutative).
    FMin,
    /// Float maximum (commutative).
    FMax,
    // Comparisons and select.
    /// Integer compare; predicate in [`InstAttr::IntPred`], result is `i8`
    /// (0/1) with the operand lane count.
    ICmp,
    /// Float compare; predicate in [`InstAttr::FloatPred`], result is `i8`.
    FCmp,
    /// `select cond, a, b` — lanewise `cond != 0 ? a : b`; `cond` is `i8`
    /// with the same lane count as the result.
    Select,
    // Memory.
    /// `gep base, index, elem_bytes` — pointer arithmetic
    /// `base + index * elem_bytes`; `elem_bytes` in [`InstAttr::ElemBytes`].
    Gep,
    /// `load ty, ptr` — loads a scalar or vector from memory.
    Load,
    /// `store val, ptr` — stores a scalar or vector; produces void.
    Store,
    // Vector shuffling (emitted by vector codegen).
    /// `insertelement vec, scalar, lane-const`.
    InsertElement,
    /// `extractelement vec, lane-const`.
    ExtractElement,
    /// `shufflevector a, b, mask` — mask lanes index the concatenation of
    /// `a` and `b`; mask in [`InstAttr::Mask`].
    ShuffleVector,
    // Conversions (unary; result type carried by the instruction).
    /// Sign-extend an integer to a wider integer type.
    Sext,
    /// Zero-extend an integer to a wider integer type.
    Zext,
    /// Truncate an integer to a narrower integer type.
    Trunc,
    /// Convert a float to a signed integer (saturating on overflow).
    Fptosi,
    /// Convert a signed integer to a float.
    Sitofp,
    /// Extend `f32` to `f64`.
    Fpext,
    /// Truncate `f64` to `f32`.
    Fptrunc,
}

impl Opcode {
    /// All opcodes, for exhaustive table tests.
    pub const ALL: [Opcode; 34] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::SDiv,
        Opcode::UDiv,
        Opcode::SRem,
        Opcode::URem,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::LShr,
        Opcode::AShr,
        Opcode::SMin,
        Opcode::SMax,
        Opcode::FAdd,
        Opcode::FSub,
        Opcode::FMul,
        Opcode::FDiv,
        Opcode::FMin,
        Opcode::FMax,
        Opcode::ICmp,
        Opcode::FCmp,
        Opcode::Select,
        Opcode::Gep,
        Opcode::Load,
        Opcode::Store,
        Opcode::Sext,
        Opcode::Zext,
        Opcode::Trunc,
        Opcode::Fptosi,
        Opcode::Sitofp,
        Opcode::Fpext,
        Opcode::Fptrunc,
    ];

    /// Whether this is a unary conversion instruction.
    pub fn is_cast(self) -> bool {
        matches!(
            self,
            Opcode::Sext
                | Opcode::Zext
                | Opcode::Trunc
                | Opcode::Fptosi
                | Opcode::Sitofp
                | Opcode::Fpext
                | Opcode::Fptrunc
        )
    }

    /// Whether this is a two-operand arithmetic/logic instruction (the class
    /// the vectorizer groups into vector ALU ops).
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::SDiv
                | Opcode::UDiv
                | Opcode::SRem
                | Opcode::URem
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::LShr
                | Opcode::AShr
                | Opcode::SMin
                | Opcode::SMax
                | Opcode::FAdd
                | Opcode::FSub
                | Opcode::FMul
                | Opcode::FDiv
                | Opcode::FMin
                | Opcode::FMax
        )
    }

    /// Whether the operation is commutative (`a ⊕ b == b ⊕ a`).
    ///
    /// This is the property LSLP exploits: operands of commutative
    /// instructions may be reordered freely.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::SMin
                | Opcode::SMax
                | Opcode::FAdd
                | Opcode::FMul
                | Opcode::FMin
                | Opcode::FMax
        )
    }

    /// Whether the operation is associative *exactly* (integer ops).
    ///
    /// Float add/mul are only associative under fast-math; see
    /// [`Opcode::is_associative`] with the `fast_math` flag.
    pub fn is_associative_exact(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::SMin
                | Opcode::SMax
        )
    }

    /// Whether the operation may be reassociated given the fast-math setting.
    /// Multi-node formation (chains of the same commutative opcode) requires
    /// associativity because it reorders evaluation order across the chain.
    pub fn is_associative(self, fast_math: bool) -> bool {
        self.is_associative_exact()
            || (fast_math
                && matches!(self, Opcode::FAdd | Opcode::FMul | Opcode::FMin | Opcode::FMax))
    }

    /// Whether the operation works on float data.
    pub fn is_float_op(self) -> bool {
        matches!(
            self,
            Opcode::FAdd
                | Opcode::FSub
                | Opcode::FMul
                | Opcode::FDiv
                | Opcode::FMin
                | Opcode::FMax
                | Opcode::FCmp
        )
    }

    /// Whether the instruction reads or writes memory.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Whether the instruction has a side effect (cannot be dead-code
    /// eliminated even when unused).
    pub fn has_side_effect(self) -> bool {
        self == Opcode::Store
    }

    /// The textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::SDiv => "sdiv",
            Opcode::UDiv => "udiv",
            Opcode::SRem => "srem",
            Opcode::URem => "urem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::LShr => "lshr",
            Opcode::AShr => "ashr",
            Opcode::SMin => "smin",
            Opcode::SMax => "smax",
            Opcode::FAdd => "fadd",
            Opcode::FSub => "fsub",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::FMin => "fmin",
            Opcode::FMax => "fmax",
            Opcode::ICmp => "icmp",
            Opcode::FCmp => "fcmp",
            Opcode::Select => "select",
            Opcode::Gep => "gep",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::InsertElement => "insertelement",
            Opcode::ExtractElement => "extractelement",
            Opcode::ShuffleVector => "shufflevector",
            Opcode::Sext => "sext",
            Opcode::Zext => "zext",
            Opcode::Trunc => "trunc",
            Opcode::Fptosi => "fptosi",
            Opcode::Sitofp => "sitofp",
            Opcode::Fpext => "fpext",
            Opcode::Fptrunc => "fptrunc",
        }
    }

    /// Parse a mnemonic produced by [`Opcode::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Some(match s {
            "add" => Opcode::Add,
            "sub" => Opcode::Sub,
            "mul" => Opcode::Mul,
            "sdiv" => Opcode::SDiv,
            "udiv" => Opcode::UDiv,
            "srem" => Opcode::SRem,
            "urem" => Opcode::URem,
            "and" => Opcode::And,
            "or" => Opcode::Or,
            "xor" => Opcode::Xor,
            "shl" => Opcode::Shl,
            "lshr" => Opcode::LShr,
            "ashr" => Opcode::AShr,
            "smin" => Opcode::SMin,
            "smax" => Opcode::SMax,
            "fadd" => Opcode::FAdd,
            "fsub" => Opcode::FSub,
            "fmul" => Opcode::FMul,
            "fdiv" => Opcode::FDiv,
            "fmin" => Opcode::FMin,
            "fmax" => Opcode::FMax,
            "icmp" => Opcode::ICmp,
            "fcmp" => Opcode::FCmp,
            "select" => Opcode::Select,
            "gep" => Opcode::Gep,
            "load" => Opcode::Load,
            "store" => Opcode::Store,
            "insertelement" => Opcode::InsertElement,
            "extractelement" => Opcode::ExtractElement,
            "shufflevector" => Opcode::ShuffleVector,
            "sext" => Opcode::Sext,
            "zext" => Opcode::Zext,
            "trunc" => Opcode::Trunc,
            "fptosi" => Opcode::Fptosi,
            "sitofp" => Opcode::Sitofp,
            "fpext" => Opcode::Fpext,
            "fptrunc" => Opcode::Fptrunc,
            _ => return None,
        })
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

impl IntPred {
    /// Textual name (`eq`, `slt`, ...).
    pub fn name(self) -> &'static str {
        match self {
            IntPred::Eq => "eq",
            IntPred::Ne => "ne",
            IntPred::Slt => "slt",
            IntPred::Sle => "sle",
            IntPred::Sgt => "sgt",
            IntPred::Sge => "sge",
            IntPred::Ult => "ult",
            IntPred::Ule => "ule",
            IntPred::Ugt => "ugt",
            IntPred::Uge => "uge",
        }
    }

    /// Parse a name produced by [`IntPred::name`].
    pub fn from_name(s: &str) -> Option<IntPred> {
        Some(match s {
            "eq" => IntPred::Eq,
            "ne" => IntPred::Ne,
            "slt" => IntPred::Slt,
            "sle" => IntPred::Sle,
            "sgt" => IntPred::Sgt,
            "sge" => IntPred::Sge,
            "ult" => IntPred::Ult,
            "ule" => IntPred::Ule,
            "ugt" => IntPred::Ugt,
            "uge" => IntPred::Uge,
            _ => return None,
        })
    }
}

impl fmt::Display for IntPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Floating-point comparison predicates (ordered comparisons only).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FloatPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not-equal.
    One,
    /// Ordered less-than.
    Olt,
    /// Ordered less-or-equal.
    Ole,
    /// Ordered greater-than.
    Ogt,
    /// Ordered greater-or-equal.
    Oge,
}

impl FloatPred {
    /// Textual name (`oeq`, `olt`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FloatPred::Oeq => "oeq",
            FloatPred::One => "one",
            FloatPred::Olt => "olt",
            FloatPred::Ole => "ole",
            FloatPred::Ogt => "ogt",
            FloatPred::Oge => "oge",
        }
    }

    /// Parse a name produced by [`FloatPred::name`].
    pub fn from_name(s: &str) -> Option<FloatPred> {
        Some(match s {
            "oeq" => FloatPred::Oeq,
            "one" => FloatPred::One,
            "olt" => FloatPred::Olt,
            "ole" => FloatPred::Ole,
            "ogt" => FloatPred::Ogt,
            "oge" => FloatPred::Oge,
            _ => return None,
        })
    }
}

impl fmt::Display for FloatPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Immediate (non-value) attributes attached to certain opcodes.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum InstAttr {
    /// No attribute (most instructions).
    #[default]
    None,
    /// Predicate for [`Opcode::ICmp`].
    IntPred(IntPred),
    /// Predicate for [`Opcode::FCmp`].
    FloatPred(FloatPred),
    /// Element stride in bytes for [`Opcode::Gep`].
    ElemBytes(u32),
    /// Lane selection mask for [`Opcode::ShuffleVector`].
    Mask(Vec<u32>),
}

/// One instruction: opcode, result type, value operands and an optional
/// immediate attribute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Opcode,
    /// The result type ([`Type::Void`] for `store`).
    pub ty: Type,
    /// Value operands, in opcode-defined order.
    pub args: Operands,
    /// Immediate attribute (predicate, gep stride, shuffle mask).
    pub attr: InstAttr,
}

impl Inst {
    /// Construct an instruction record; `args` is an array, slice or
    /// `Vec` of operands.
    pub fn new(op: Opcode, ty: Type, args: impl Into<Operands>, attr: InstAttr) -> Inst {
        Inst { op, ty, args: args.into(), attr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutative_implies_binary() {
        for op in Opcode::ALL {
            if op.is_commutative() {
                assert!(op.is_binary(), "{op} is commutative but not binary");
            }
        }
    }

    #[test]
    fn exact_associative_ops_are_integer() {
        for op in Opcode::ALL {
            if op.is_associative_exact() {
                assert!(!op.is_float_op(), "{op} claims exact associativity");
                assert!(op.is_commutative());
            }
        }
    }

    #[test]
    fn fast_math_extends_associativity_to_fp() {
        assert!(!Opcode::FAdd.is_associative(false));
        assert!(Opcode::FAdd.is_associative(true));
        assert!(Opcode::FMul.is_associative(true));
        assert!(!Opcode::FSub.is_associative(true));
        assert!(Opcode::Add.is_associative(false));
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("insertelement"), Some(Opcode::InsertElement));
        assert_eq!(Opcode::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn pred_round_trip() {
        for p in [
            IntPred::Eq,
            IntPred::Ne,
            IntPred::Slt,
            IntPred::Sle,
            IntPred::Sgt,
            IntPred::Sge,
            IntPred::Ult,
            IntPred::Ule,
            IntPred::Ugt,
            IntPred::Uge,
        ] {
            assert_eq!(IntPred::from_name(p.name()), Some(p));
        }
        for p in [
            FloatPred::Oeq,
            FloatPred::One,
            FloatPred::Olt,
            FloatPred::Ole,
            FloatPred::Ogt,
            FloatPred::Oge,
        ] {
            assert_eq!(FloatPred::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn records_keep_their_landing_sizes() {
        // Operands in place and a four-byte operand index: a size change
        // here is a change to every instruction, use list and log record.
        assert_eq!(std::mem::size_of::<Operands>(), 24);
        assert_eq!(std::mem::size_of::<Inst>(), 64);
        assert_eq!(std::mem::size_of::<crate::Use>(), 8);
    }

    #[test]
    fn memory_and_side_effects() {
        assert!(Opcode::Load.is_memory());
        assert!(Opcode::Store.is_memory());
        assert!(Opcode::Store.has_side_effect());
        assert!(!Opcode::Load.has_side_effect());
        assert!(!Opcode::Add.is_memory());
    }
}
