//! Type checking and lowering of SLC to IR.

use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{
    BlockId, FloatPred, Function, InstAttr, IntPred, Module, Opcode, ScalarType, Terminator, Type,
    ValueId,
};

use crate::ast::{BinOp, CmpOp, Expr, Kernel, Param, ParamType, Program, Stmt};
use crate::CompileError;

struct Lowerer {
    f: Function,
    arrays: HashMap<String, (ValueId, ScalarType)>,
    scalars: HashMap<String, (ValueId, ScalarType)>,
    /// Names declared `let mut` (re-assignable via `name = expr;`).
    muts: HashSet<String>,
    /// Current block in CFG mode; `None` keeps the straight-line path,
    /// which stays byte-for-byte what it was before control flow existed.
    cur: Option<BlockId>,
    /// Whether lowering is inside a `loop` body (nesting is rejected).
    in_loop: bool,
}

fn err(pos: (usize, usize), message: impl Into<String>) -> CompileError {
    CompileError::new(pos.0, pos.1, message)
}

/// Does this body need the CFG lowering mode? `loop` statements and `if`
/// expressions do; everything else lowers straight-line as before.
fn uses_cfg(body: &[Stmt]) -> bool {
    fn expr_has_if(e: &Expr) -> bool {
        match e {
            Expr::IfElse { .. } => true,
            Expr::IntLit { .. } | Expr::FloatLit { .. } | Expr::Var { .. } => false,
            Expr::Index { index, .. } => expr_has_if(index),
            Expr::Neg { expr, .. } | Expr::Cast { expr, .. } => expr_has_if(expr),
            Expr::Binary { lhs, rhs, .. } => expr_has_if(lhs) || expr_has_if(rhs),
        }
    }
    body.iter().any(|s| match s {
        Stmt::Loop { .. } => true,
        Stmt::For { body, .. } => uses_cfg(body),
        Stmt::Let { expr, .. } => expr_has_if(expr),
        Stmt::SetVar { value, .. } => expr_has_if(value),
        Stmt::Assign { index, value, .. } => expr_has_if(index) || expr_has_if(value),
    })
}

/// Collect (in first-assignment order) the outer-scope variables a loop
/// body re-assigns: these become the loop-carried values.
fn carried_vars(
    body: &[Stmt],
    outer: &HashMap<String, (ValueId, ScalarType)>,
    out: &mut Vec<String>,
) {
    for s in body {
        match s {
            Stmt::SetVar { name, .. } => {
                if outer.contains_key(name) && !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            Stmt::For { body, .. } | Stmt::Loop { body, .. } => carried_vars(body, outer, out),
            Stmt::Let { .. } | Stmt::Assign { .. } => {}
        }
    }
}

impl Lowerer {
    /// Append an instruction to the current block (CFG mode) or the
    /// straight-line body.
    fn emit(&mut self, op: Opcode, ty: Type, args: Vec<ValueId>, attr: InstAttr) -> ValueId {
        match self.cur {
            Some(b) => self.f.push_in_block(b, op, ty, args, attr),
            None => self.f.push(op, ty, args, attr),
        }
    }

    /// Bottom-up type inference; literals are `None` (they adapt).
    fn infer(&self, e: &Expr) -> Result<Option<ScalarType>, CompileError> {
        Ok(match e {
            Expr::IntLit { .. } | Expr::FloatLit { .. } => None,
            Expr::Var { name, pos } => Some(
                self.scalars
                    .get(name)
                    .ok_or_else(|| err(*pos, format!("unknown variable `{name}`")))?
                    .1,
            ),
            Expr::Index { array, pos, .. } => Some(
                self.arrays
                    .get(array)
                    .ok_or_else(|| err(*pos, format!("unknown array `{array}`")))?
                    .1,
            ),
            Expr::Neg { expr, .. } => self.infer(expr)?,
            Expr::Cast { ty, .. } => Some(*ty),
            Expr::Binary { lhs, rhs, .. } => match self.infer(lhs)? {
                Some(t) => Some(t),
                None => self.infer(rhs)?,
            },
            Expr::IfElse { then_e, else_e, .. } => match self.infer(then_e)? {
                Some(t) => Some(t),
                None => self.infer(else_e)?,
            },
        })
    }

    fn binop_opcode(
        op: BinOp,
        ty: ScalarType,
        pos: (usize, usize),
    ) -> Result<Opcode, CompileError> {
        let float = ty.is_float();
        let oc = match (op, float) {
            (BinOp::Add, false) => Opcode::Add,
            (BinOp::Add, true) => Opcode::FAdd,
            (BinOp::Sub, false) => Opcode::Sub,
            (BinOp::Sub, true) => Opcode::FSub,
            (BinOp::Mul, false) => Opcode::Mul,
            (BinOp::Mul, true) => Opcode::FMul,
            (BinOp::Div, false) => Opcode::SDiv,
            (BinOp::Div, true) => Opcode::FDiv,
            (BinOp::Rem, false) => Opcode::SRem,
            (BinOp::And, false) => Opcode::And,
            (BinOp::Or, false) => Opcode::Or,
            (BinOp::Xor, false) => Opcode::Xor,
            (BinOp::Shl, false) => Opcode::Shl,
            (BinOp::Shr, false) => Opcode::AShr,
            (BinOp::LShr, false) => Opcode::LShr,
            (other, true) => {
                return Err(err(pos, format!("operator {other:?} is not defined on {ty}")))
            }
        };
        Ok(oc)
    }

    /// Lower `e`, coercing literals to `want`; non-literals must match.
    fn lower_expr(&mut self, e: &Expr, want: ScalarType) -> Result<ValueId, CompileError> {
        match e {
            Expr::IntLit { value, pos } => {
                if want.is_int() {
                    Ok(self.f.const_int(want, *value))
                } else if want.is_float() {
                    Ok(self.f.const_float(want, *value as f64))
                } else {
                    Err(err(*pos, "integer literal in pointer context"))
                }
            }
            Expr::FloatLit { value, pos } => {
                if want.is_float() {
                    Ok(self.f.const_float(want, *value))
                } else {
                    Err(err(*pos, format!("float literal where {want} expected")))
                }
            }
            Expr::Var { name, pos } => {
                let &(id, ty) = self
                    .scalars
                    .get(name)
                    .ok_or_else(|| err(*pos, format!("unknown variable `{name}`")))?;
                if ty != want {
                    return Err(err(*pos, format!("`{name}` has type {ty}, expected {want}")));
                }
                Ok(id)
            }
            Expr::Index { array, index, pos } => {
                let &(base, elem) = self
                    .arrays
                    .get(array)
                    .ok_or_else(|| err(*pos, format!("unknown array `{array}`")))?;
                if elem != want {
                    return Err(err(
                        *pos,
                        format!("`{array}` has element type {elem}, expected {want}"),
                    ));
                }
                let idx = self.lower_expr(index, ScalarType::I64)?;
                let gep = self.emit(
                    Opcode::Gep,
                    Type::PTR,
                    vec![base, idx],
                    InstAttr::ElemBytes(elem.bytes()),
                );
                Ok(self.emit(Opcode::Load, Type::Scalar(elem), vec![gep], InstAttr::None))
            }
            Expr::Neg { expr, pos } => {
                let v = self.lower_expr(expr, want)?;
                let (zero, op) = if want.is_float() {
                    (self.f.const_float(want, 0.0), Opcode::FSub)
                } else if want.is_int() {
                    (self.f.const_int(want, 0), Opcode::Sub)
                } else {
                    return Err(err(*pos, "cannot negate a pointer"));
                };
                Ok(self.emit(op, Type::Scalar(want), vec![zero, v], InstAttr::None))
            }
            Expr::Cast { expr, ty, pos } => {
                if *ty != want {
                    return Err(err(*pos, format!("cast to {ty} where {want} expected")));
                }
                let Some(src) = self.infer(expr)? else {
                    // A literal cast (`2 as f64`) lowers the literal
                    // directly at the target type.
                    return self.lower_expr(expr, want);
                };
                let v = self.lower_expr(expr, src)?;
                if src == want {
                    return Ok(v);
                }
                let op = match (src.is_int(), want.is_int()) {
                    (true, true) if src.bits() < want.bits() => Opcode::Sext,
                    (true, true) => Opcode::Trunc,
                    (true, false) => Opcode::Sitofp,
                    (false, true) => Opcode::Fptosi,
                    (false, false) if src.bits() < want.bits() => Opcode::Fpext,
                    (false, false) => Opcode::Fptrunc,
                };
                Ok(self.emit(op, Type::Scalar(want), vec![v], InstAttr::None))
            }
            Expr::Binary { op, lhs, rhs, pos } => {
                let oc = Self::binop_opcode(*op, want, *pos)?;
                let l = self.lower_expr(lhs, want)?;
                let r = self.lower_expr(rhs, want)?;
                Ok(self.emit(oc, Type::Scalar(want), vec![l, r], InstAttr::None))
            }
            Expr::IfElse { clhs, cmp, crhs, then_e, else_e, pos } => {
                self.lower_if(clhs, *cmp, crhs, then_e, else_e, want, *pos)
            }
        }
    }

    /// Lower an `if` expression to a branch diamond: compare in the current
    /// block, branch to two arm blocks that each compute one value, and
    /// reconverge at a join block whose parameter is the result.
    #[allow(clippy::too_many_arguments)]
    fn lower_if(
        &mut self,
        clhs: &Expr,
        cmp: CmpOp,
        crhs: &Expr,
        then_e: &Expr,
        else_e: &Expr,
        want: ScalarType,
        pos: (usize, usize),
    ) -> Result<ValueId, CompileError> {
        debug_assert!(self.cur.is_some(), "if-expressions force CFG mode");
        let cty = match self.infer(clhs)? {
            Some(t) => t,
            None => self.infer(crhs)?.ok_or_else(|| {
                err(pos, "cannot infer comparison type: both operands are literals")
            })?,
        };
        let l = self.lower_expr(clhs, cty)?;
        let r = self.lower_expr(crhs, cty)?;
        let (op, attr) = if cty.is_float() {
            let p = match cmp {
                CmpOp::Lt => FloatPred::Olt,
                CmpOp::Le => FloatPred::Ole,
                CmpOp::Gt => FloatPred::Ogt,
                CmpOp::Ge => FloatPred::Oge,
                CmpOp::Eq => FloatPred::Oeq,
                CmpOp::Ne => FloatPred::One,
            };
            (Opcode::FCmp, InstAttr::FloatPred(p))
        } else {
            let p = match cmp {
                CmpOp::Lt => IntPred::Slt,
                CmpOp::Le => IntPred::Sle,
                CmpOp::Gt => IntPred::Sgt,
                CmpOp::Ge => IntPred::Sge,
                CmpOp::Eq => IntPred::Eq,
                CmpOp::Ne => IntPred::Ne,
            };
            (Opcode::ICmp, InstAttr::IntPred(p))
        };
        let cond = self.emit(op, Type::Scalar(ScalarType::I8), vec![l, r], attr);

        let then_b = self.f.add_block();
        let else_b = self.f.add_block();
        let join = self.f.add_block();
        let res = self.f.add_block_param(join, None, Type::Scalar(want));
        let from = self.cur.expect("CFG mode");
        self.f.set_term(
            from,
            Terminator::Br {
                cond,
                then_to: then_b,
                then_args: Vec::new(),
                else_to: else_b,
                else_args: Vec::new(),
            },
        );
        // Arms may themselves open diamonds, so each arm's final block is
        // whatever `cur` is after lowering its value.
        self.cur = Some(then_b);
        let tv = self.lower_expr(then_e, want)?;
        let t_end = self.cur.expect("CFG mode");
        self.f.set_term(t_end, Terminator::Jump { target: join, args: vec![tv] });
        self.cur = Some(else_b);
        let ev = self.lower_expr(else_e, want)?;
        let e_end = self.cur.expect("CFG mode");
        self.f.set_term(e_end, Terminator::Jump { target: join, args: vec![ev] });
        self.cur = Some(join);
        Ok(res)
    }

    /// Lower `loop var in 0..trip { body }` to a `CountedLoop` region.
    /// Outer `let mut` bindings re-assigned in the body become the region's
    /// loop-carried values: block parameters of the body block (current
    /// value each iteration), `continue` arguments (next value), and exit
    /// block parameters (final value).
    fn lower_loop(
        &mut self,
        var: &str,
        trip: i64,
        body: &[Stmt],
        pos: (usize, usize),
    ) -> Result<(), CompileError> {
        if self.in_loop {
            return Err(err(pos, "nested `loop`s are not supported; unroll with `for`"));
        }
        if self.scalars.contains_key(var) || self.arrays.contains_key(var) {
            return Err(err(pos, format!("`{var}` is already defined")));
        }
        let header = self.cur.expect("loops force CFG mode");

        let mut carried = Vec::new();
        carried_vars(body, &self.scalars, &mut carried);
        for name in &carried {
            if !self.muts.contains(name) {
                return Err(err(
                    pos,
                    format!("`{name}` is not declared `mut` and cannot be re-assigned"),
                ));
            }
        }
        let init: Vec<ValueId> = carried.iter().map(|n| self.scalars[n].0).collect();

        let body_b = self.f.add_block();
        let exit_b = self.f.add_block();
        let iv = self.f.add_block_param(body_b, Some(var.to_string()), Type::I64);
        for name in &carried {
            let ty = self.scalars[name].1;
            let p = self.f.add_block_param(body_b, Some(name.clone()), Type::Scalar(ty));
            self.scalars.insert(name.clone(), (p, ty));
        }
        let trip_c = self.f.const_i64(trip);
        self.f
            .set_term(header, Terminator::Loop { trip: trip_c, body: body_b, init, exit: exit_b });

        // Lower the body with `var` in scope; body-local `let`s are scoped
        // to the loop, like `for`.
        self.cur = Some(body_b);
        self.in_loop = true;
        self.scalars.insert(var.to_string(), (iv, ScalarType::I64));
        let saved: Vec<String> = self.scalars.keys().cloned().collect();
        for stmt in body {
            self.lower_stmt(stmt)?;
        }
        self.scalars.retain(|k, _| saved.contains(k));
        self.scalars.remove(var);
        self.in_loop = false;

        let next: Vec<ValueId> = carried.iter().map(|n| self.scalars[n].0).collect();
        let body_end = self.cur.expect("CFG mode");
        self.f.set_term(body_end, Terminator::Continue { args: next });

        // After the loop, the carried names refer to the exit parameters
        // (the values after the final iteration).
        self.cur = Some(exit_b);
        for name in &carried {
            let ty = self.scalars[name].1;
            let p = self.f.add_block_param(exit_b, Some(name.clone()), Type::Scalar(ty));
            self.scalars.insert(name.clone(), (p, ty));
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::For { var, start, end, body, pos } => {
                if self.scalars.contains_key(var) || self.arrays.contains_key(var) {
                    return Err(err(*pos, format!("`{var}` is already defined")));
                }
                for k in *start..*end {
                    // Bind the loop variable to the iteration constant; the
                    // body is fully unrolled (SLC has no runtime control
                    // flow — this is how multi-lane kernels are written
                    // compactly).
                    let c = self.f.const_i64(k);
                    self.scalars.insert(var.clone(), (c, ScalarType::I64));
                    // Body-local `let`s are scoped per iteration.
                    let saved: Vec<String> = self.scalars.keys().cloned().collect();
                    for stmt in body {
                        self.lower_stmt(stmt)?;
                    }
                    self.scalars.retain(|k2, _| saved.contains(k2));
                    self.scalars.remove(var);
                }
                Ok(())
            }
            Stmt::Let { name, mutable, ty, expr, pos } => {
                if self.scalars.contains_key(name) || self.arrays.contains_key(name) {
                    return Err(err(*pos, format!("`{name}` is already defined")));
                }
                let want = match ty {
                    Some(t) => *t,
                    None => self.infer(expr)?.ok_or_else(|| {
                        err(*pos, format!("cannot infer type of `{name}`; add `: ty`"))
                    })?,
                };
                let v = self.lower_expr(expr, want)?;
                // Name the value for readable IR dumps (constants excluded:
                // they may be shared).
                if self.f.is_inst(v) {
                    self.f.set_value_name(v, name.clone());
                }
                if *mutable {
                    self.muts.insert(name.clone());
                }
                self.scalars.insert(name.clone(), (v, want));
                Ok(())
            }
            Stmt::SetVar { name, value, pos } => {
                let &(_, ty) = self
                    .scalars
                    .get(name)
                    .ok_or_else(|| err(*pos, format!("unknown variable `{name}`")))?;
                if !self.muts.contains(name) {
                    return Err(err(
                        *pos,
                        format!("`{name}` is not declared `mut` and cannot be re-assigned"),
                    ));
                }
                // SSA re-binding: the name now refers to the new value. A
                // re-assignment inside a `loop` to an outer binding is what
                // makes it loop-carried (see `Stmt::Loop` below).
                let v = self.lower_expr(value, ty)?;
                self.scalars.insert(name.clone(), (v, ty));
                Ok(())
            }
            Stmt::Loop { var, trip, body, pos } => self.lower_loop(var, *trip, body, *pos),
            Stmt::Assign { array, index, value, pos } => {
                let &(base, elem) = self
                    .arrays
                    .get(array)
                    .ok_or_else(|| err(*pos, format!("unknown array `{array}`")))?;
                let val = self.lower_expr(value, elem)?;
                let idx = self.lower_expr(index, ScalarType::I64)?;
                let gep = self.emit(
                    Opcode::Gep,
                    Type::PTR,
                    vec![base, idx],
                    InstAttr::ElemBytes(elem.bytes()),
                );
                self.emit(Opcode::Store, Type::Void, vec![val, gep], InstAttr::None);
                Ok(())
            }
        }
    }
}

fn lower_kernel(k: &Kernel) -> Result<Function, CompileError> {
    let mut lw = Lowerer {
        f: Function::new(k.name.clone()),
        arrays: HashMap::default(),
        scalars: HashMap::default(),
        muts: HashSet::default(),
        cur: None,
        in_loop: false,
    };
    for Param { name, ty } in &k.params {
        if lw.scalars.contains_key(name) || lw.arrays.contains_key(name) {
            return Err(CompileError::new(1, 1, format!("parameter `{name}` is duplicated")));
        }
        match ty {
            ParamType::Pointer(elem) => {
                let id = lw.f.add_param(name.clone(), Type::PTR);
                lw.arrays.insert(name.clone(), (id, *elem));
            }
            ParamType::Scalar(t) => {
                let id = lw.f.add_param(name.clone(), Type::Scalar(*t));
                lw.scalars.insert(name.clone(), (id, *t));
            }
        }
    }
    // Bodies with runtime control flow (`loop` / `if`) lower into a CFG;
    // everything else takes the original straight-line path so existing
    // kernels produce byte-identical IR.
    if uses_cfg(&k.body) {
        let entry = lw.f.init_cfg();
        lw.cur = Some(entry);
    }
    for s in &k.body {
        lw.lower_stmt(s)?;
    }
    Ok(lw.f)
}

/// Lower a parsed program to an IR module.
pub fn lower_program(p: &Program) -> Result<Module, CompileError> {
    let mut m = Module::new();
    for k in &p.kernels {
        if m.function(&k.name).is_some() {
            return Err(CompileError::new(1, 1, format!("kernel `{}` is duplicated", k.name)));
        }
        m.functions.push(lower_kernel(k)?);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn compile_ok(src: &str) -> Module {
        let m = lower_program(&parse(src).unwrap()).unwrap();
        lslp_ir::verify_module(&m).unwrap();
        m
    }

    fn compile_err(src: &str) -> CompileError {
        match parse(src) {
            Err(e) => e,
            Ok(p) => lower_program(&p).unwrap_err(),
        }
    }

    #[test]
    fn lowers_motivation_loads_shape() {
        let m = compile_ok(
            "kernel m(i64* A, i64* B, i64* C, i64 i) {
                 A[i+0] = (B[i+0] << 1) & (C[i+0] << 2);
                 A[i+1] = (C[i+1] << 3) & (B[i+1] << 4);
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert_eq!(text.matches("shl i64").count(), 4, "{text}");
        assert_eq!(text.matches("and i64").count(), 2, "{text}");
        assert_eq!(text.matches("store i64").count(), 2, "{text}");
        assert_eq!(text.matches("load i64").count(), 4, "{text}");
    }

    #[test]
    fn int_literals_adapt_to_float_context() {
        let m = compile_ok("kernel k(f64* A, i64 i) { A[i] = A[i] + 2; }");
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("fadd f64"), "{text}");
        assert!(text.contains("2.0"), "{text}");
    }

    #[test]
    fn let_bindings_are_named_and_typed() {
        let m = compile_ok(
            "kernel k(f64* A, i64 i) {
                 let sq = A[i] * A[i];
                 A[i] = sq + sq;
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("%sq = fmul f64"), "{text}");
    }

    #[test]
    fn unary_negation_lowers_to_sub_from_zero() {
        let m = compile_ok("kernel k(f64* A, i64 i) { A[i] = -A[i]; }");
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("fsub f64 0.0"), "{text}");
        let m = compile_ok("kernel k(i64* A, i64 i) { A[i] = -A[i]; }");
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("sub i64 0"), "{text}");
    }

    #[test]
    fn shift_variants_lower_distinctly() {
        let m = compile_ok(
            "kernel k(i64* A, i64 i) { A[i] = (A[i] << 1) + (A[i] >> 2) + (A[i] >>> 3); }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("shl i64"), "{text}");
        assert!(text.contains("ashr i64"), "{text}");
        assert!(text.contains("lshr i64"), "{text}");
    }

    #[test]
    fn type_errors_are_reported() {
        let e = compile_err("kernel k(f64* A, i64 i) { A[i] = A[i] & 1; }");
        assert!(e.message.contains("not defined on f64"), "{e}");
        let e = compile_err("kernel k(i64* A, i64 i) { A[i] = 1.5; }");
        assert!(e.message.contains("float literal"), "{e}");
        let e = compile_err("kernel k(f64* A, f32* B, i64 i) { A[i] = B[i]; }");
        assert!(e.message.contains("element type f32"), "{e}");
    }

    #[test]
    fn unknown_names_are_reported() {
        let e = compile_err("kernel k(i64* A, i64 i) { A[i] = nope; }");
        assert!(e.message.contains("unknown variable"), "{e}");
        let e = compile_err("kernel k(i64* A, i64 i) { B[i] = 1; }");
        assert!(e.message.contains("unknown array"), "{e}");
    }

    #[test]
    fn inference_failure_requests_annotation() {
        let e = compile_err("kernel k(i64* A) { let x = 1 + 2; A[0] = x; }");
        assert!(e.message.contains("cannot infer"), "{e}");
    }

    #[test]
    fn redefinitions_are_rejected() {
        let e = compile_err("kernel k(i64* A, i64 i) { let i: i64 = 1; A[0] = i; }");
        assert!(e.message.contains("already defined"), "{e}");
        let e = compile_err("kernel a(i64* A) { } kernel a(i64* B) { }");
        assert!(e.message.contains("duplicated"), "{e}");
    }

    #[test]
    fn index_expressions_can_be_nonlinear() {
        let m = compile_ok("kernel k(i64* A, i64 i) { A[i*i] = 1; }");
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("mul i64 %i, %i"), "{text}");
    }
}
#[cfg(test)]
mod for_tests {
    use super::lower_program;
    use crate::parse;

    #[test]
    fn for_loops_unroll_at_compile_time() {
        let m = lower_program(
            &parse(
                "kernel k(f64* A, f64* B, i64 i) {
                     for o in 0..4 {
                         A[i+o] = B[i+o] * 2.0;
                     }
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        lslp_ir::verify_module(&m).unwrap();
        let text = lslp_ir::print_function(&m.functions[0]);
        assert_eq!(text.matches("store f64").count(), 4, "{text}");
        assert_eq!(text.matches("fmul").count(), 4, "{text}");
    }

    #[test]
    fn loop_variable_folds_into_indices() {
        // `i + o` with o = 2 lowers to an add with the constant 2.
        let m = lower_program(
            &parse("kernel k(i64* A, i64 i) { for o in 2..3 { A[i+o] = o; } }").unwrap(),
        )
        .unwrap();
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("add i64 %i, 2"), "{text}");
        assert!(text.contains("store i64 2"), "{text}");
    }

    #[test]
    fn nested_loops_and_scoped_lets() {
        let m = lower_program(
            &parse(
                "kernel k(f64* A, f64* X, i64 i) {
                     for r in 0..2 {
                         for c in 0..2 {
                             let v = X[4*i + 2*r + c];
                             A[4*i + 2*r + c] = v * v;
                         }
                     }
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        lslp_ir::verify_module(&m).unwrap();
        let text = lslp_ir::print_function(&m.functions[0]);
        assert_eq!(text.matches("store f64").count(), 4, "{text}");
    }

    #[test]
    fn loop_variable_leaves_scope() {
        let e = lower_program(
            &parse("kernel k(i64* A) { for o in 0..2 { A[o] = o; } A[9] = o; }").unwrap(),
        )
        .unwrap_err();
        assert!(e.message.contains("unknown variable"), "{e}");
    }

    #[test]
    fn shadowing_the_index_is_rejected() {
        let e = lower_program(
            &parse("kernel k(i64* A, i64 i) { for i in 0..2 { A[i] = 1; } }").unwrap(),
        )
        .unwrap_err();
        assert!(e.message.contains("already defined"), "{e}");
    }

    #[test]
    fn giant_ranges_are_rejected_at_parse_time() {
        let e = parse("kernel k(i64* A) { for o in 0..5000 { A[o] = 1; } }").unwrap_err();
        assert!(e.message.contains("1024"), "{e}");
    }

    #[test]
    fn for_bodies_without_control_flow_stay_straight_line() {
        let m = lower_program(
            &parse("kernel k(i64* A, i64 i) { for o in 0..2 { A[i+o] = o; } }").unwrap(),
        )
        .unwrap();
        assert!(m.functions[0].cfg().is_none());
    }

    #[test]
    fn for_kernels_vectorize_like_manual_ones() {
        // The unrolled loop is indistinguishable from hand-written lanes.
        let m = lower_program(
            &parse(
                "kernel k(f64* A, f64* B, f64* C, i64 i) {
                     for o in 0..4 {
                         A[i+o] = B[i+o] + C[i+o];
                     }
                 }",
            )
            .unwrap(),
        )
        .unwrap();
        // Just the lowering is checked here; the vectorizer integration is
        // covered by tests/pipeline.rs. Per lane: 3 index adds, 3 geps,
        // 2 loads, 1 fadd, 1 store = 10 instructions.
        assert_eq!(m.functions[0].body_len(), 4 * 10);
    }
}
#[cfg(test)]
mod cfg_tests {
    use super::lower_program;
    use crate::parse;
    use lslp_ir::Module;

    fn compile_ok(src: &str) -> Module {
        let m = lower_program(&parse(src).unwrap()).unwrap();
        lslp_ir::verify_module(&m).unwrap();
        m
    }

    fn compile_err(src: &str) -> crate::CompileError {
        match parse(src) {
            Err(e) => e,
            Ok(p) => lower_program(&p).unwrap_err(),
        }
    }

    #[test]
    fn loop_lowers_to_counted_loop_region() {
        let m = compile_ok(
            "kernel dot(f64* X, f64* Y, f64* OUT) {
                 let mut s: f64 = 0.0;
                 loop k in 0..8 {
                     s = s + X[k] * Y[k];
                 }
                 OUT[0] = s;
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        // Header launches the region with the accumulator's init value;
        // the body carries it via a block parameter and `continue`; the
        // exit block receives the final value.
        assert!(text.contains("loop 8, bb1(0.0), bb2"), "{text}");
        assert!(text.contains("bb1(%k: i64, %s: f64):"), "{text}");
        assert!(text.contains("continue"), "{text}");
        assert!(text.contains("bb2(%s1: f64):"), "{text}");
        assert!(text.contains("store f64 %s1"), "{text}");
    }

    #[test]
    fn loop_without_carried_values_has_bare_edges() {
        let m = compile_ok(
            "kernel scale(f64* A, f64* B) {
                 loop k in 0..4 { A[k] = B[k] * 2.0; }
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("loop 4, bb1, bb2"), "{text}");
        assert!(text.contains("continue\n"), "{text}");
    }

    #[test]
    fn if_expression_lowers_to_branch_diamond() {
        let m = compile_ok(
            "kernel clamp(f64* X, f64* OUT, i64 i) {
                 let v = X[i];
                 let c = if v < 0.0 { 0.0 } else { v };
                 OUT[i] = c;
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("fcmp olt f64 %v, 0.0"), "{text}");
        assert!(text.contains("br %1, bb1, bb2"), "{text}");
        assert!(text.contains("jump bb3(0.0)"), "{text}");
        assert!(text.contains("jump bb3(%v)"), "{text}");
        assert!(text.contains("bb3(%2: f64):"), "{text}");
    }

    #[test]
    fn integer_comparisons_use_signed_predicates() {
        let m = compile_ok(
            "kernel k(i64* A, i64 i) {
                 A[0] = if i >= 3 { A[1] } else { A[2] };
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("icmp sge i64 %i, 3"), "{text}");
    }

    #[test]
    fn branchy_loop_combines_regions() {
        let m = compile_ok(
            "kernel cl(f64* X, f64* OUT, i64 i) {
                 loop k in 0..4 {
                     let v = X[i+k];
                     let c = if v < 0.0 { 0.0 } else { v };
                     OUT[i+k] = c;
                 }
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert!(text.contains("loop 4"), "{text}");
        assert!(text.contains("br "), "{text}");
        assert!(text.contains("continue"), "{text}");
    }

    #[test]
    fn assignment_requires_mut() {
        let e = compile_err(
            "kernel k(f64* A) { let s: f64 = 0.0; loop i in 0..2 { s = s + A[i]; } A[0] = s; }",
        );
        assert!(e.message.contains("not declared `mut`"), "{e}");
        let e = compile_err("kernel k(i64* A, i64 i) { i = 3; A[0] = i; }");
        assert!(e.message.contains("not declared `mut`"), "{e}");
    }

    #[test]
    fn nested_runtime_loops_are_rejected() {
        let e =
            compile_err("kernel k(f64* A) { loop i in 0..2 { loop j in 0..2 { A[i+j] = 0.0; } } }");
        assert!(e.message.contains("nested `loop`"), "{e}");
    }

    #[test]
    fn loop_variable_and_locals_leave_scope() {
        let e = compile_err("kernel k(i64* A) { loop o in 0..2 { A[o] = o; } A[9] = o; }");
        assert!(e.message.contains("unknown variable"), "{e}");
        let e = compile_err(
            "kernel k(i64* A) { loop o in 0..2 { let t: i64 = o; A[o] = t; } A[9] = t; }",
        );
        assert!(e.message.contains("unknown variable"), "{e}");
    }

    #[test]
    fn for_inside_runtime_loop_unrolls_in_the_body() {
        let m = compile_ok(
            "kernel k(f64* A, f64* B) {
                 loop i in 0..2 {
                     for o in 0..2 { A[2*i+o] = B[2*i+o]; }
                 }
             }",
        );
        let text = lslp_ir::print_function(&m.functions[0]);
        assert_eq!(text.matches("store f64").count(), 2, "{text}");
        assert!(text.contains("loop 2"), "{text}");
    }

    #[test]
    fn straight_line_kernels_get_no_cfg() {
        let m = compile_ok("kernel k(f64* A, i64 i) { A[i] = A[i] * 2.0; }");
        assert!(m.functions[0].cfg().is_none());
        assert!(!lslp_ir::print_function(&m.functions[0]).contains("bb0"));
    }
}
