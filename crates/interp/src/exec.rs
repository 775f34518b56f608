//! The IR interpreter.

use std::error::Error;
use std::fmt;

use lslp_ir::hash::HashMap;
use lslp_ir::{
    BlockId, Constant, FloatPred, Function, Inst, InstAttr, IntPred, Opcode, ScalarType,
    Terminator, Type, ValueData, ValueId,
};

use crate::memory::{Memory, Value};

/// Per-instruction cost hook for [`run_function_costed`]: maps one
/// executed instruction to its cycle price.
pub type InstCostFn<'a> = &'a dyn Fn(&Function, &Inst) -> i64;

/// A runtime failure: division by zero, out-of-bounds access, missing
/// argument, or malformed IR that slipped past the verifier.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExecError {
    /// What went wrong.
    pub message: String,
}

impl ExecError {
    fn new(message: impl Into<String>) -> ExecError {
        ExecError { message: message.into() }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exec error: {}", self.message)
    }
}

impl Error for ExecError {}

/// Execution statistics of one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Instructions executed.
    pub insts: u64,
    /// Instructions executed that produced or consumed vector values.
    pub vector_insts: u64,
}

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

fn int_binop(op: Opcode, bits: u32, a: i64, b: i64) -> Result<i64, ExecError> {
    let shift_mask = (bits - 1) as i64;
    let r = match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::SDiv => {
            if b == 0 {
                return Err(ExecError::new("division by zero"));
            }
            a.wrapping_div(b)
        }
        Opcode::UDiv => {
            if b == 0 {
                return Err(ExecError::new("division by zero"));
            }
            (zext(a, bits) / zext(b, bits)) as i64
        }
        Opcode::SRem => {
            if b == 0 {
                return Err(ExecError::new("remainder by zero"));
            }
            a.wrapping_rem(b)
        }
        Opcode::URem => {
            if b == 0 {
                return Err(ExecError::new("remainder by zero"));
            }
            (zext(a, bits) % zext(b, bits)) as i64
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl((b & shift_mask) as u32),
        Opcode::LShr => (zext(a, bits) >> (b & shift_mask)) as i64,
        Opcode::AShr => sext(a, bits) >> (b & shift_mask),
        Opcode::SMin => a.min(b),
        Opcode::SMax => a.max(b),
        other => return Err(ExecError::new(format!("{other} is not an integer op"))),
    };
    Ok(sext(r, bits))
}

fn float_binop(op: Opcode, a: f64, b: f64) -> Result<f64, ExecError> {
    Ok(match op {
        Opcode::FAdd => a + b,
        Opcode::FSub => a - b,
        Opcode::FMul => a * b,
        Opcode::FDiv => a / b,
        Opcode::FMin => a.min(b),
        Opcode::FMax => a.max(b),
        other => return Err(ExecError::new(format!("{other} is not a float op"))),
    })
}

fn scalar_binop(op: Opcode, ty: ScalarType, a: &Value, b: &Value) -> Result<Value, ExecError> {
    if op.is_float_op() {
        let r = float_binop(op, a.as_float(), b.as_float())?;
        // Round through f32 when the type demands it.
        Ok(Value::Float(if ty == ScalarType::F32 { r as f32 as f64 } else { r }))
    } else {
        Ok(Value::Int(int_binop(op, ty.bits(), a.as_int(), b.as_int())?))
    }
}

fn icmp(pred: IntPred, bits: u32, a: i64, b: i64) -> bool {
    let (ua, ub) = (zext(a, bits), zext(b, bits));
    match pred {
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

fn fcmp(pred: FloatPred, a: f64, b: f64) -> bool {
    match pred {
        FloatPred::Oeq => a == b,
        FloatPred::One => a != b && !a.is_nan() && !b.is_nan(),
        FloatPred::Olt => a < b,
        FloatPred::Ole => a <= b,
        FloatPred::Ogt => a > b,
        FloatPred::Oge => a >= b,
    }
}

/// One lane of a conversion. Float→int saturates (Rust `as` semantics;
/// LLVM leaves overflow undefined, so any total choice is conforming).
fn cast_lane(op: Opcode, src: ScalarType, dst: ScalarType, v: Value) -> Result<Value, ExecError> {
    Ok(match op {
        Opcode::Sext => Value::Int(v.as_int()),
        Opcode::Zext => Value::Int(zext(v.as_int(), src.bits()) as i64),
        Opcode::Trunc => Value::Int(sext(v.as_int(), dst.bits())),
        Opcode::Fptosi => {
            let f = v.as_float();
            let wide = f as i64;
            Value::Int(sext(
                wide.clamp(
                    -(1i64 << (dst.bits().min(63) - 1)),
                    (1i64 << (dst.bits().min(63) - 1)) - 1,
                ),
                dst.bits(),
            ))
        }
        Opcode::Sitofp => {
            let x = v.as_int() as f64;
            Value::Float(if dst == ScalarType::F32 { x as f32 as f64 } else { x })
        }
        Opcode::Fpext => Value::Float(v.as_float()),
        Opcode::Fptrunc => Value::Float(v.as_float() as f32 as f64),
        other => return Err(ExecError::new(format!("{other} is not a cast"))),
    })
}

fn const_value(c: &Constant) -> Value {
    match c {
        Constant::Int { value, .. } => Value::Int(*value),
        Constant::Float { .. } => Value::Float(c.as_f64().unwrap()),
        Constant::Vector { lanes, .. } => Value::Vec(lanes.iter().map(const_value).collect()),
    }
}

/// Split a value into lanes (scalars become one lane).
fn lanes_of(v: &Value) -> Vec<Value> {
    match v {
        Value::Vec(vs) => vs.clone(),
        other => vec![other.clone()],
    }
}

fn rewrap(ty: Type, mut lanes: Vec<Value>) -> Value {
    if ty.is_vector() {
        Value::Vec(lanes)
    } else {
        lanes.pop().expect("scalar has one lane")
    }
}

struct Interp<'a> {
    f: &'a Function,
    mem: &'a mut Memory,
    env: HashMap<ValueId, Value>,
    stats: ExecStats,
    /// Optional per-instruction cost hook; accumulated into `cycles`.
    /// Used by the performance simulator for CFG functions, where the
    /// dynamic instruction stream differs from the static body.
    cost: Option<InstCostFn<'a>>,
    cycles: i64,
}

impl<'a> Interp<'a> {
    fn value(&self, id: ValueId) -> Result<Value, ExecError> {
        if let Some(v) = self.env.get(&id) {
            return Ok(v.clone());
        }
        match self.f.value(id) {
            ValueData::Const(c) => Ok(const_value(self.f.const_value(*c))),
            _ => Err(ExecError::new(format!("value {id} used before definition"))),
        }
    }

    fn exec_inst(&mut self, id: ValueId, inst: &Inst) -> Result<(), ExecError> {
        self.stats.insts += 1;
        if let Some(cost) = self.cost {
            self.cycles += cost(self.f, inst);
        }
        let is_vec = inst.ty.is_vector() || inst.args.iter().any(|&a| self.f.ty(a).is_vector());
        if is_vec {
            self.stats.vector_insts += 1;
        }
        let arg = |s: &Self, i: usize| s.value(inst.args[i]);
        let result: Option<Value> = match inst.op {
            op if op.is_binary() => {
                let elem = inst.ty.elem().expect("binary on data type");
                let a = lanes_of(&arg(self, 0)?);
                let b = lanes_of(&arg(self, 1)?);
                let lanes = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| scalar_binop(op, elem, x, y))
                    .collect::<Result<Vec<_>, _>>()?;
                Some(rewrap(inst.ty, lanes))
            }
            Opcode::ICmp => {
                let InstAttr::IntPred(p) = inst.attr else { unreachable!() };
                let bits = self.f.ty(inst.args[0]).elem().unwrap().bits();
                let a = lanes_of(&arg(self, 0)?);
                let b = lanes_of(&arg(self, 1)?);
                let lanes = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| Value::Int(icmp(p, bits, x.as_int(), y.as_int()) as i64))
                    .collect();
                Some(rewrap(inst.ty, lanes))
            }
            Opcode::FCmp => {
                let InstAttr::FloatPred(p) = inst.attr else { unreachable!() };
                let a = lanes_of(&arg(self, 0)?);
                let b = lanes_of(&arg(self, 1)?);
                let lanes = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| Value::Int(fcmp(p, x.as_float(), y.as_float()) as i64))
                    .collect();
                Some(rewrap(inst.ty, lanes))
            }
            Opcode::Select => {
                let c = lanes_of(&arg(self, 0)?);
                let a = lanes_of(&arg(self, 1)?);
                let b = lanes_of(&arg(self, 2)?);
                let lanes = c
                    .iter()
                    .zip(a.iter().zip(&b))
                    .map(|(c, (x, y))| if c.as_int() != 0 { x.clone() } else { y.clone() })
                    .collect();
                Some(rewrap(inst.ty, lanes))
            }
            Opcode::Gep => {
                let InstAttr::ElemBytes(eb) = inst.attr else { unreachable!() };
                let base = arg(self, 0)?;
                let idx = arg(self, 1)?.as_int();
                let Value::Ptr { buf, off } = base else {
                    return Err(ExecError::new("gep of non-pointer"));
                };
                Some(Value::Ptr { buf, off: off.wrapping_add(idx.wrapping_mul(eb as i64)) })
            }
            Opcode::Load => {
                let ptr = arg(self, 0)?;
                let elem = inst.ty.elem().expect("load of data");
                let n = inst.ty.lanes();
                let mut lanes = Vec::with_capacity(n as usize);
                for l in 0..n {
                    lanes.push(
                        self.mem
                            .read_scalar(&ptr, (l * elem.bytes()) as i64, elem)
                            .map_err(ExecError::new)?,
                    );
                }
                Some(rewrap(inst.ty, lanes))
            }
            Opcode::Store => {
                let val = arg(self, 0)?;
                let ptr = arg(self, 1)?;
                let vty = self.f.ty(inst.args[0]);
                let elem = vty.elem().expect("store of data");
                for (l, lane) in lanes_of(&val).into_iter().enumerate() {
                    self.mem
                        .write_scalar(&ptr, (l as u32 * elem.bytes()) as i64, elem, lane)
                        .map_err(ExecError::new)?;
                }
                None
            }
            Opcode::InsertElement => {
                let mut lanes = lanes_of(&arg(self, 0)?);
                let v = arg(self, 1)?;
                let idx = arg(self, 2)?.as_int() as usize;
                if idx >= lanes.len() {
                    return Err(ExecError::new("insertelement lane out of range"));
                }
                lanes[idx] = v;
                Some(Value::Vec(lanes))
            }
            Opcode::ExtractElement => {
                let lanes = lanes_of(&arg(self, 0)?);
                let idx = arg(self, 1)?.as_int() as usize;
                Some(
                    lanes
                        .get(idx)
                        .cloned()
                        .ok_or_else(|| ExecError::new("extractelement lane out of range"))?,
                )
            }
            Opcode::ShuffleVector => {
                let InstAttr::Mask(mask) = &inst.attr else { unreachable!() };
                let mut all = lanes_of(&arg(self, 0)?);
                all.extend(lanes_of(&arg(self, 1)?));
                let lanes = mask
                    .iter()
                    .map(|&m| {
                        all.get(m as usize)
                            .cloned()
                            .ok_or_else(|| ExecError::new("shuffle lane out of range"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(Value::Vec(lanes))
            }
            op if op.is_cast() => {
                let src_elem = self.f.ty(inst.args[0]).elem().expect("cast source");
                let dst_elem = inst.ty.elem().expect("cast destination");
                let lanes = lanes_of(&arg(self, 0)?)
                    .into_iter()
                    .map(|v| cast_lane(op, src_elem, dst_elem, v))
                    .collect::<Result<Vec<_>, _>>()?;
                Some(rewrap(inst.ty, lanes))
            }
            other => return Err(ExecError::new(format!("cannot execute {other}"))),
        };
        if let Some(v) = result {
            self.env.insert(id, v);
        }
        Ok(())
    }

    // ----- control flow ---------------------------------------------------

    fn exec_block(
        &mut self,
        b: BlockId,
        observe: &mut impl FnMut(ValueId, &Value),
    ) -> Result<(), ExecError> {
        let insts = self.f.cfg().expect("CFG function").block(b).insts().to_vec();
        for id in insts {
            let inst = self.f.inst(id).expect("blocks contain instructions").clone();
            self.exec_inst(id, &inst)?;
            if let Some(v) = self.env.get(&id) {
                observe(id, v);
            }
        }
        Ok(())
    }

    fn eval_args(&self, args: &[ValueId]) -> Result<Vec<Value>, ExecError> {
        args.iter().map(|&a| self.value(a)).collect()
    }

    fn bind_params(&mut self, b: BlockId, vals: Vec<Value>) -> Result<(), ExecError> {
        let params = self.f.cfg().expect("CFG function").block(b).params().to_vec();
        if params.len() != vals.len() {
            return Err(ExecError::new(format!(
                "block {b} expects {} arguments, got {}",
                params.len(),
                vals.len()
            )));
        }
        for (p, v) in params.into_iter().zip(vals) {
            self.env.insert(p, v);
        }
        Ok(())
    }

    fn take_fuel(fuel: &mut u64) -> Result<(), ExecError> {
        if *fuel == 0 {
            return Err(ExecError::new("block transition limit exceeded"));
        }
        *fuel -= 1;
        Ok(())
    }

    /// Run a loop-body region from `start` until its `continue`, returning
    /// the evaluated carried values.
    fn run_region(
        &mut self,
        start: BlockId,
        fuel: &mut u64,
        observe: &mut impl FnMut(ValueId, &Value),
    ) -> Result<Vec<Value>, ExecError> {
        let mut cur = start;
        loop {
            Self::take_fuel(fuel)?;
            self.exec_block(cur, observe)?;
            let term = self.f.cfg().expect("CFG function").block(cur).term().clone();
            match term {
                Terminator::Continue { args } => return self.eval_args(&args),
                Terminator::Jump { target, args } => {
                    let vals = self.eval_args(&args)?;
                    self.bind_params(target, vals)?;
                    cur = target;
                }
                Terminator::Br { cond, then_to, then_args, else_to, else_args } => {
                    let taken = self.value(cond)?.as_int() != 0;
                    let (target, args) =
                        if taken { (then_to, then_args) } else { (else_to, else_args) };
                    let vals = self.eval_args(&args)?;
                    self.bind_params(target, vals)?;
                    cur = target;
                }
                Terminator::Ret => {
                    return Err(ExecError::new("ret inside a loop body"));
                }
                Terminator::Loop { .. } => {
                    return Err(ExecError::new("nested counted loops are not supported"));
                }
            }
        }
    }

    /// The block driver for CFG functions: execute from the entry block
    /// until `ret`, running counted-loop regions `trip` times each.
    fn run_cfg(&mut self, observe: &mut impl FnMut(ValueId, &Value)) -> Result<(), ExecError> {
        // Backstop against unstructured jump cycles (the verifier does not
        // forbid them); generous compared to any real kernel.
        let mut fuel: u64 = 100_000;
        let mut cur = self.f.cfg().expect("CFG function").entry();
        loop {
            Self::take_fuel(&mut fuel)?;
            self.exec_block(cur, observe)?;
            let term = self.f.cfg().expect("CFG function").block(cur).term().clone();
            match term {
                Terminator::Ret => return Ok(()),
                Terminator::Jump { target, args } => {
                    let vals = self.eval_args(&args)?;
                    self.bind_params(target, vals)?;
                    cur = target;
                }
                Terminator::Br { cond, then_to, then_args, else_to, else_args } => {
                    let taken = self.value(cond)?.as_int() != 0;
                    let (target, args) =
                        if taken { (then_to, then_args) } else { (else_to, else_args) };
                    let vals = self.eval_args(&args)?;
                    self.bind_params(target, vals)?;
                    cur = target;
                }
                Terminator::Loop { trip, body, init, exit } => {
                    let trip = self.value(trip)?.as_int();
                    if trip < 1 {
                        return Err(ExecError::new("loop trip count must be ≥ 1"));
                    }
                    let mut carried = self.eval_args(&init)?;
                    for k in 0..trip {
                        let mut vals = Vec::with_capacity(carried.len() + 1);
                        vals.push(Value::Int(k));
                        vals.extend(carried.iter().cloned());
                        self.bind_params(body, vals)?;
                        carried = self.run_region(body, &mut fuel, observe)?;
                    }
                    self.bind_params(exit, carried)?;
                    cur = exit;
                }
                Terminator::Continue { .. } => {
                    return Err(ExecError::new("continue outside a loop region"));
                }
            }
        }
    }
}

/// Execute a function against `mem` with the given argument values.
///
/// # Errors
///
/// Returns [`ExecError`] on division by zero, out-of-bounds memory access,
/// argument count/type mismatch, or malformed IR.
pub fn run_function(
    f: &Function,
    args: &[Value],
    mem: &mut Memory,
) -> Result<ExecStats, ExecError> {
    run_function_traced(f, args, mem, |_, _| {})
}

/// Like [`run_function`], additionally invoking `observe` with every
/// instruction's result value as it executes (void instructions are
/// skipped). Backs `lslpc --trace` and execution-debugging workflows.
///
/// # Errors
///
/// Same failure modes as [`run_function`].
pub fn run_function_traced(
    f: &Function,
    args: &[Value],
    mem: &mut Memory,
    mut observe: impl FnMut(ValueId, &Value),
) -> Result<ExecStats, ExecError> {
    if args.len() != f.params().len() {
        return Err(ExecError::new(format!(
            "@{} expects {} arguments, got {}",
            f.name(),
            f.params().len(),
            args.len()
        )));
    }
    let (_, stats) = run_function_costed(f, args, mem, None, &mut observe)?;
    Ok(stats)
}

/// Like [`run_function`], additionally charging each *executed*
/// instruction via `cost` and returning the accumulated total. For CFG
/// functions this prices the dynamic instruction stream (loop bodies
/// execute `trip` times, only one branch arm runs); for straight-line
/// bodies it matches the static estimate.
///
/// # Errors
///
/// Same failure modes as [`run_function`].
pub fn run_function_costed(
    f: &Function,
    args: &[Value],
    mem: &mut Memory,
    cost: Option<InstCostFn<'_>>,
    observe: &mut impl FnMut(ValueId, &Value),
) -> Result<(i64, ExecStats), ExecError> {
    if args.len() != f.params().len() {
        return Err(ExecError::new(format!(
            "@{} expects {} arguments, got {}",
            f.name(),
            f.params().len(),
            args.len()
        )));
    }
    let mut interp =
        Interp { f, mem, env: HashMap::default(), stats: ExecStats::default(), cost, cycles: 0 };
    for (&p, v) in f.params().iter().zip(args) {
        interp.env.insert(p, v.clone());
    }
    if f.cfg().is_some() {
        interp.run_cfg(observe)?;
        return Ok((interp.cycles, interp.stats));
    }
    for (_, id, _) in f.iter_body() {
        // Re-fetch the instruction to satisfy the borrow checker.
        let inst = f.inst(id).expect("body contains instructions").clone();
        interp.exec_inst(id, &inst)?;
        if let Some(v) = interp.env.get(&id) {
            observe(id, v);
        }
    }
    Ok((interp.cycles, interp.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::parse_function;

    fn run(src: &str, args: &[Value], mem: &mut Memory) -> Result<ExecStats, ExecError> {
        let f = parse_function(src).unwrap();
        lslp_ir::verify_function(&f).unwrap();
        run_function(&f, args, mem)
    }

    #[test]
    fn scalar_arithmetic_and_memory() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[10, 20]);
        run(
            "func @k(%A: ptr, %i: i64) {
               %p = gep %A, %i, 8
               %v = load i64, %p
               %w = mul i64 %v, 3
               %p1 = gep %p, 1, 8
               store i64 %w, %p1
             }",
            &[a, Value::Int(0)],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_i64("A", 1), Some(30));
    }

    #[test]
    fn vector_ops_match_scalar_semantics() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[1, 2, 3, 4]);
        run(
            "func @k(%A: ptr) {
               %v = load <4 x i64>, %A
               %w = add <4 x i64> %v, %v
               store <4 x i64> %w, %A
             }",
            &[a],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_i64("A", 0), Some(2));
        assert_eq!(mem.read_i64("A", 3), Some(8));
    }

    #[test]
    fn shuffle_insert_extract() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[1, 2]);
        run(
            "func @k(%A: ptr) {
               %v = load <2 x i64>, %A
               %e = extractelement <2 x i64> %v, 0
               %w = insertelement <2 x i64> %v, %e, 1
               %s = shufflevector <2 x i64> %w, %w, [1, 0]
               store <2 x i64> %s, %A
             }",
            &[a],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_i64("A", 0), Some(1));
        assert_eq!(mem.read_i64("A", 1), Some(1));
    }

    #[test]
    fn division_by_zero_errors() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[5, 0]);
        let err = run(
            "func @k(%A: ptr) {
               %x = load i64, %A
               %p = gep %A, 1, 8
               %y = load i64, %p
               %q = sdiv i64 %x, %y
               store i64 %q, %A
             }",
            &[a],
            &mut mem,
        )
        .unwrap_err();
        assert!(err.message.contains("division by zero"), "{err}");
    }

    #[test]
    fn narrow_int_wrapping() {
        let mut mem = Memory::new();
        let a = mem.alloc("A", 2);
        run(
            "func @k(%A: ptr) {
               %v = load i8, %A
               %w = add i8 %v, 127
               %p = gep %A, 1, 1
               store i8 %w, %p
             }",
            &[a],
            &mut mem,
        )
        .unwrap();
        // 0 + 127 = 127 fits; rerun with initial 1 to wrap.
        let a = mem.alloc("A", 2);
        mem.write_scalar(&a, 0, ScalarType::I8, Value::Int(1)).unwrap();
        run(
            "func @k(%A: ptr) {
               %v = load i8, %A
               %w = add i8 %v, 127
               %p = gep %A, 1, 1
               store i8 %w, %p
             }",
            std::slice::from_ref(&a),
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_scalar(&a, 1, ScalarType::I8).unwrap(), Value::Int(-128));
    }

    #[test]
    fn shift_amounts_mask_like_x86() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[1, 65]);
        run(
            "func @k(%A: ptr) {
               %x = load i64, %A
               %p = gep %A, 1, 8
               %s = load i64, %p
               %r = shl i64 %x, %s
               store i64 %r, %A
             }",
            &[a],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_i64("A", 0), Some(2), "shift by 65 behaves as shift by 1");
    }

    #[test]
    fn cmp_and_select() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[7, 3, 0]);
        run(
            "func @k(%A: ptr) {
               %x = load i64, %A
               %p = gep %A, 1, 8
               %y = load i64, %p
               %c = icmp slt i64 %x, %y
               %m = select i64 %c, %x, %y
               %q = gep %A, 2, 8
               store i64 %m, %q
             }",
            &[a],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.read_i64("A", 2), Some(3));
    }

    #[test]
    fn stats_count_vector_insts() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[1, 2]);
        let stats = run(
            "func @k(%A: ptr) {
               %v = load <2 x i64>, %A
               %w = add <2 x i64> %v, %v
               store <2 x i64> %w, %A
             }",
            &[a],
            &mut mem,
        )
        .unwrap();
        assert_eq!(stats.insts, 3);
        assert_eq!(stats.vector_insts, 3);
    }

    #[test]
    fn argument_count_checked() {
        let mut mem = Memory::new();
        let err = run("func @k(%A: ptr) { }", &[], &mut mem).unwrap_err();
        assert!(err.message.contains("expects 1 arguments"), "{err}");
    }

    #[test]
    fn out_of_bounds_load_errors() {
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[1]);
        let err = run(
            "func @k(%A: ptr) {
               %p = gep %A, 1, 8
               %v = load i64, %p
               store i64 %v, %A
             }",
            &[a],
            &mut mem,
        )
        .unwrap_err();
        assert!(err.message.contains("out-of-bounds"), "{err}");
    }

    // ----- CFG execution --------------------------------------------------

    #[test]
    fn cfg_diamond_selects_branch() {
        // max(x, y) via a branch diamond with a join block parameter.
        let src = "func @max(%A: ptr) {
bb0:
  %x = load i64, %A
  %p = gep %A, 1, 8
  %y = load i64, %p
  %c = icmp sgt i64 %x, %y
  br %c, bb1, bb2
bb1:
  jump bb3(%x)
bb2:
  jump bb3(%y)
bb3(%m: i64):
  %q = gep %A, 2, 8
  store i64 %m, %q
  ret
}";
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[7, 3, 0]);
        run(src, &[a], &mut mem).unwrap();
        assert_eq!(mem.read_i64("A", 2), Some(7));

        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[3, 9, 0]);
        run(src, &[a], &mut mem).unwrap();
        assert_eq!(mem.read_i64("A", 2), Some(9));
    }

    #[test]
    fn cfg_counted_loop_accumulates() {
        // Sum four elements through a loop-carried accumulator.
        let src = "func @sum(%A: ptr) {
bb0:
  loop 4, bb1(0), bb2
bb1(%i: i64, %acc: i64):
  %p = gep %A, %i, 8
  %x = load i64, %p
  %next = add i64 %acc, %x
  continue %next
bb2(%total: i64):
  %q = gep %A, 4, 8
  store i64 %total, %q
  ret
}";
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[10, 20, 30, 40, 0]);
        run(src, &[a], &mut mem).unwrap();
        assert_eq!(mem.read_i64("A", 4), Some(100));
    }

    #[test]
    fn cfg_loop_iv_counts_from_zero() {
        // The induction variable is the first body parameter: sum 0..5 = 10.
        let src = "func @iv(%A: ptr) {
bb0:
  loop 5, bb1(0), bb2
bb1(%i: i64, %acc: i64):
  %next = add i64 %acc, %i
  continue %next
bb2(%total: i64):
  store i64 %total, %A
  ret
}";
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[0]);
        run(src, &[a], &mut mem).unwrap();
        assert_eq!(mem.read_i64("A", 0), Some(10));
    }

    #[test]
    fn cfg_branchy_loop_body() {
        // Clamp negatives to zero inside the loop body: a diamond per
        // iteration feeding the carried accumulator.
        let src = "func @clampsum(%A: ptr) {
bb0:
  loop 4, bb1(0), bb5
bb1(%i: i64, %acc: i64):
  %p = gep %A, %i, 8
  %x = load i64, %p
  %c = icmp slt i64 %x, 0
  br %c, bb2, bb3
bb2:
  jump bb4(0)
bb3:
  jump bb4(%x)
bb4(%v: i64):
  %next = add i64 %acc, %v
  continue %next
bb5(%total: i64):
  %q = gep %A, 4, 8
  store i64 %total, %q
  ret
}";
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[5, -7, 3, -1, 0]);
        run(src, &[a], &mut mem).unwrap();
        assert_eq!(mem.read_i64("A", 4), Some(8));
    }

    #[test]
    fn cfg_jump_cycle_hits_transition_limit() {
        let src = "func @spin(%A: ptr) {
bb0:
  jump bb1
bb1:
  jump bb0
}";
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[0]);
        let err = run(src, &[a], &mut mem).unwrap_err();
        assert!(err.message.contains("block transition limit"), "{err}");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use lslp_ir::parse_function;

    #[test]
    fn trace_observes_every_value_in_order() {
        let f = parse_function(
            "func @t(%A: ptr) {
               %v = load i64, %A
               %w = add i64 %v, 5
               store i64 %w, %A
             }",
        )
        .unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[10]);
        let mut trace = Vec::new();
        run_function_traced(&f, &[a], &mut mem, |id, v| trace.push((id, v.clone()))).unwrap();
        // Two value-producing instructions (the store is void).
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].1, Value::Int(10));
        assert_eq!(trace[1].1, Value::Int(15));
        assert_eq!(mem.read_i64("A", 0), Some(15));
    }

    #[test]
    fn trace_sees_vector_values() {
        let f = parse_function(
            "func @t(%A: ptr) {
               %v = load <2 x i64>, %A
               %w = mul <2 x i64> %v, <3, 4>
               store <2 x i64> %w, %A
             }",
        )
        .unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[2, 5]);
        let mut vecs = 0;
        run_function_traced(&f, &[a], &mut mem, |_, v| {
            if matches!(v, Value::Vec(_)) {
                vecs += 1;
            }
        })
        .unwrap();
        assert_eq!(vecs, 2);
        assert_eq!(mem.read_i64("A", 0), Some(6));
        assert_eq!(mem.read_i64("A", 1), Some(20));
    }

    // ----- CFG execution --------------------------------------------------

    #[test]
    fn cfg_trace_observes_loop_iterations() {
        let f = parse_function(
            "func @t(%A: ptr) {
bb0:
  loop 3, bb1(1), bb2
bb1(%i: i64, %acc: i64):
  %next = mul i64 %acc, 2
  continue %next
bb2(%total: i64):
  store i64 %total, %A
  ret
}",
        )
        .unwrap();
        lslp_ir::verify_function(&f).unwrap();
        let mut mem = Memory::new();
        let a = mem.alloc_i64("A", &[0]);
        let mut muls = Vec::new();
        run_function_traced(&f, &[a], &mut mem, |_, v| muls.push(v.as_int())).unwrap();
        assert_eq!(muls, vec![2, 4, 8], "observe fires once per iteration");
        assert_eq!(mem.read_i64("A", 0), Some(8));
    }
}
