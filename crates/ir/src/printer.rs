//! Textual printing of functions and modules.
//!
//! The format round-trips through [`crate::parse_module`]:
//!
//! ```text
//! func @kernel(%A: ptr, %i: i64) {
//!   %0 = add i64 %i, 1
//!   %1 = gep %A, %0, 8
//!   %2 = load f64, %1
//!   store f64 %2, %1
//! }
//! ```

use std::fmt::Write as _;

use crate::cfg::Terminator;
use crate::function::{Function, Module, ValueData};
use crate::hash::{HashMap, HashSet};
use crate::inst::{Inst, InstAttr, Opcode};
use crate::value::ValueId;

fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == '.' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.chars().next().unwrap().is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

struct Namer {
    names: HashMap<ValueId, String>,
    taken: HashSet<String>,
    next: usize,
}

impl Namer {
    fn new(f: &Function) -> Namer {
        let mut n = Namer { names: HashMap::default(), taken: HashSet::default(), next: 0 };
        for &p in f.params() {
            let base = sanitize(f.value_name(p).unwrap_or("arg"));
            n.assign(p, base);
        }
        for &v in f.body() {
            n.name_value(f, v);
        }
        if let Some(cfg) = f.cfg() {
            for b in cfg.block_ids() {
                let block = cfg.block(b);
                for &p in block.params() {
                    n.name_value(f, p);
                }
                for &v in block.insts() {
                    n.name_value(f, v);
                }
            }
        }
        n
    }

    fn name_value(&mut self, f: &Function, v: ValueId) {
        if f.ty(v).is_void() {
            return;
        }
        match f.value_name(v) {
            Some(name) => {
                let base = sanitize(name);
                self.assign(v, base);
            }
            None => {
                let num = self.fresh_number();
                self.names.insert(v, num);
            }
        }
    }

    fn fresh_number(&mut self) -> String {
        loop {
            let cand = self.next.to_string();
            self.next += 1;
            if self.taken.insert(cand.clone()) {
                return cand;
            }
        }
    }

    fn assign(&mut self, v: ValueId, base: String) {
        let mut cand = base.clone();
        let mut k = 1;
        while !self.taken.insert(cand.clone()) {
            cand = format!("{base}{k}");
            k += 1;
        }
        self.names.insert(v, cand);
    }

    fn name(&self, v: ValueId) -> &str {
        self.names.get(&v).map_or("?", String::as_str)
    }
}

fn operand(f: &Function, namer: &Namer, v: ValueId) -> String {
    match f.value(v) {
        ValueData::Const(c) => f.const_value(*c).to_string(),
        _ => format!("%{}", namer.name(v)),
    }
}

fn print_inst(out: &mut String, f: &Function, namer: &Namer, id: ValueId, inst: &Inst) {
    let op = |i: usize| operand(f, namer, inst.args[i]);
    let op0 = || operand(f, namer, inst.args[0]);
    out.push_str("  ");
    if !inst.ty.is_void() {
        let _ = write!(out, "%{} = ", namer.name(id));
    }
    match inst.op {
        o if o.is_binary() => {
            let _ = write!(out, "{o} {} {}, {}", inst.ty, op(0), op(1));
        }
        Opcode::ICmp => {
            let InstAttr::IntPred(p) = &inst.attr else { unreachable!() };
            let _ = write!(out, "icmp {p} {} {}, {}", f.ty(inst.args[0]), op(0), op(1));
        }
        Opcode::FCmp => {
            let InstAttr::FloatPred(p) = &inst.attr else { unreachable!() };
            let _ = write!(out, "fcmp {p} {} {}, {}", f.ty(inst.args[0]), op(0), op(1));
        }
        Opcode::Select => {
            let _ = write!(out, "select {} {}, {}, {}", inst.ty, op(0), op(1), op(2));
        }
        Opcode::Gep => {
            let InstAttr::ElemBytes(b) = inst.attr else { unreachable!() };
            let _ = write!(out, "gep {}, {}, {b}", op(0), op(1));
        }
        Opcode::Load => {
            let _ = write!(out, "load {}, {}", inst.ty, op(0));
        }
        Opcode::Store => {
            let _ = write!(out, "store {} {}, {}", f.ty(inst.args[0]), op(0), op(1));
        }
        Opcode::InsertElement => {
            let _ = write!(out, "insertelement {} {}, {}, {}", inst.ty, op(0), op(1), op(2));
        }
        Opcode::ExtractElement => {
            let _ = write!(out, "extractelement {} {}, {}", f.ty(inst.args[0]), op(0), op(1));
        }
        Opcode::ShuffleVector => {
            let InstAttr::Mask(mask) = &inst.attr else { unreachable!() };
            let _ = write!(out, "shufflevector {} {}, {}, [", f.ty(inst.args[0]), op(0), op(1));
            for (i, m) in mask.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{m}");
            }
            out.push(']');
        }
        op if op.is_cast() => {
            let _ = write!(out, "{op} {} {} to {}", f.ty(inst.args[0]), op0(), inst.ty);
        }
        _ => unreachable!("unprintable opcode {}", inst.op),
    }
    out.push('\n');
}

/// Render a branch edge: `bbN` or `bbN(%a, %b)`.
fn edge(f: &Function, namer: &Namer, target: crate::cfg::BlockId, args: &[ValueId]) -> String {
    let mut s = target.to_string();
    if !args.is_empty() {
        s.push('(');
        for (i, &a) in args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&operand(f, namer, a));
        }
        s.push(')');
    }
    s
}

fn print_term(out: &mut String, f: &Function, namer: &Namer, term: &Terminator) {
    out.push_str("  ");
    match term {
        Terminator::Ret => out.push_str("ret"),
        Terminator::Jump { target, args } => {
            let _ = write!(out, "jump {}", edge(f, namer, *target, args));
        }
        Terminator::Br { cond, then_to, then_args, else_to, else_args } => {
            let _ = write!(
                out,
                "br {}, {}, {}",
                operand(f, namer, *cond),
                edge(f, namer, *then_to, then_args),
                edge(f, namer, *else_to, else_args)
            );
        }
        Terminator::Loop { trip, body, init, exit } => {
            let _ = write!(
                out,
                "loop {}, {}, {}",
                operand(f, namer, *trip),
                edge(f, namer, *body, init),
                exit
            );
        }
        Terminator::Continue { args } => {
            out.push_str("continue");
            for (i, &a) in args.iter().enumerate() {
                out.push_str(if i > 0 { ", " } else { " " });
                out.push_str(&operand(f, namer, a));
            }
        }
    }
    out.push('\n');
}

/// Render a function in the textual IR format.
pub fn print_function(f: &Function) -> String {
    let namer = Namer::new(f);
    let mut out = String::new();
    let _ = write!(out, "func @{}(", f.name());
    for (i, &p) in f.params().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "%{}: {}", namer.name(p), f.ty(p));
    }
    out.push_str(") {\n");
    if let Some(cfg) = f.cfg() {
        for b in cfg.block_ids() {
            let block = cfg.block(b);
            let _ = write!(out, "{b}");
            if !block.params().is_empty() {
                out.push('(');
                for (i, &p) in block.params().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "%{}: {}", namer.name(p), f.ty(p));
                }
                out.push(')');
            }
            out.push_str(":\n");
            for &v in block.insts() {
                if let Some(inst) = f.inst(v) {
                    print_inst(&mut out, f, &namer, v, inst);
                }
            }
            print_term(&mut out, f, &namer, block.term());
        }
    } else {
        for (_, id, inst) in f.iter_body() {
            print_inst(&mut out, f, &namer, id, inst);
        }
    }
    out.push_str("}\n");
    out
}

/// Render a whole module (functions separated by blank lines).
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for (i, f) in m.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&print_function(f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionBuilder, ScalarType, Type};

    #[test]
    fn prints_scalar_kernel() {
        let mut f = Function::new("k");
        let a = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let p = b.gep(a, i, 8);
        let v = b.load(Type::F64, p);
        let c = b.func().const_float(ScalarType::F64, 2.0);
        let d = b.fmul(v, c);
        b.store(d, p);
        let text = print_function(&f);
        assert!(text.contains("func @k(%A: ptr, %i: i64) {"), "{text}");
        assert!(text.contains("%0 = gep %A, %i, 8"), "{text}");
        assert!(text.contains("%1 = load f64, %0"), "{text}");
        assert!(text.contains("%2 = fmul f64 %1, 2.0"), "{text}");
        assert!(text.contains("store f64 %2, %0"), "{text}");
    }

    #[test]
    fn prints_vector_ops() {
        let mut f = Function::new("v");
        let a = f.add_param("A", Type::PTR);
        let vty = Type::Vector(ScalarType::F64, 2);
        let mut b = FunctionBuilder::new(&mut f);
        let v = b.load(vty, a);
        let e = b.extract(v, 1);
        let v2 = b.insert(v, e, 0);
        let sh = b.shuffle(v2, v2, vec![1, 0]);
        b.store(sh, a);
        let text = print_function(&f);
        assert!(text.contains("load <2 x f64>, %A"), "{text}");
        assert!(text.contains("extractelement <2 x f64> %0, 1"), "{text}");
        assert!(text.contains("insertelement <2 x f64> %0, %1, 0"), "{text}");
        assert!(text.contains("shufflevector <2 x f64> %2, %2, [1, 0]"), "{text}");
    }

    #[test]
    fn named_values_are_unique() {
        let mut f = Function::new("n");
        let x = f.add_param("x", Type::I64);
        let a = f.push(Opcode::Add, Type::I64, vec![x, x], InstAttr::None);
        let b = f.push(Opcode::Add, Type::I64, vec![a, x], InstAttr::None);
        f.set_value_name(a, "t");
        f.set_value_name(b, "t");
        let text = print_function(&f);
        assert!(text.contains("%t = "), "{text}");
        assert!(text.contains("%t1 = "), "{text}");
    }

    #[test]
    fn sanitizes_hostile_names() {
        let mut f = Function::new("s");
        let x = f.add_param("weird name!", Type::I64);
        let _ = x;
        let text = print_function(&f);
        assert!(text.contains("%weird_name_"), "{text}");
    }
}

#[cfg(test)]
mod cast_print_tests {
    use super::*;
    use crate::{FunctionBuilder, Opcode, ScalarType, Type};

    #[test]
    fn casts_print_llvm_style() {
        let mut f = Function::new("c");
        let x = f.add_param("x", Type::Scalar(ScalarType::I32));
        let p = f.add_param("P", Type::PTR);
        let mut b = FunctionBuilder::new(&mut f);
        let w = b.cast(Opcode::Sext, x, Type::I64);
        let fl = b.cast(Opcode::Sitofp, w, Type::F64);
        let nf = b.cast(Opcode::Fptrunc, fl, Type::Scalar(ScalarType::F32));
        b.store(nf, p);
        let text = print_function(&f);
        assert!(text.contains("%0 = sext i32 %x to i64"), "{text}");
        assert!(text.contains("%1 = sitofp i64 %0 to f64"), "{text}");
        assert!(text.contains("%2 = fptrunc f64 %1 to f32"), "{text}");
        // And it parses back.
        let f2 = crate::parse_function(&text).unwrap();
        crate::verify_function(&f2).unwrap();
        assert_eq!(print_function(&f2), text);
    }
}
