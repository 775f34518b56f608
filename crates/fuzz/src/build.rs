//! Materialize a [`Plan`] as an executable program.
//!
//! A plan builds into one function over the parameter list
//! `(OUT, IN0..IN{arrays-1}, i)` — straight-line for
//! [`ControlPlan::None`], a small CFG (counted loop and/or branch
//! diamonds) otherwise. Two construction legs exist and are selected by
//! [`Plan::via_slc`]: direct [`lslp_ir`] construction, or rendering SLC
//! source and running it through `lslp_frontend::compile` (so the
//! frontend is inside the fuzzed perimeter too). Either way the oracles
//! only ever see the one resulting [`Function`].

use lslp_ir::{
    BlockId, FloatPred, Function, InstAttr, IntPred, Opcode, Operands, ScalarType, Terminator,
    Type, ValueId,
};

use crate::plan::{ControlPlan, Plan, Shape};

/// A built fuzz program plus the metadata the execution harness needs.
pub struct Program {
    /// The plan this program was built from.
    pub plan: Plan,
    /// The function under test.
    pub function: Function,
    /// The rendered SLC source (`via_slc` plans only, kept for reproducer
    /// dumps).
    pub slc: Option<String>,
    /// Minimum element count every buffer must have for all accesses
    /// (at `i = 0`) to stay in bounds.
    pub min_len: usize,
}

impl Program {
    /// Element type of every array in the program.
    pub fn elem(&self) -> ScalarType {
        if self.plan.int {
            ScalarType::I64
        } else {
            ScalarType::F64
        }
    }
}

/// Build the program a plan describes.
///
/// # Errors
///
/// Returns a message when the SLC leg fails to compile — generator-rendered
/// source must always be accepted, so any error here is itself a bug worth
/// minimizing.
pub fn build(plan: &Plan) -> Result<Program, String> {
    let min_len = min_len(plan);
    if plan.via_slc {
        let src = render_slc(plan);
        let m = lslp_frontend::compile(&src)
            .map_err(|e| format!("generated SLC rejected: {e}\n--- source ---\n{src}"))?;
        let function = m
            .functions
            .into_iter()
            .next()
            .ok_or_else(|| "frontend produced no function".to_string())?;
        Ok(Program { plan: plan.clone(), function, slc: Some(src), min_len })
    } else {
        let function = build_ir(plan);
        Ok(Program { plan: plan.clone(), function, slc: None, min_len })
    }
}

/// Trip count and branchiness implied by the control plan (`trip = 1`
/// means the groups run once, with no enclosing loop).
fn control_shape(plan: &Plan) -> (usize, bool) {
    match plan.control {
        ControlPlan::None => (1, false),
        ControlPlan::IfDiamond => (1, true),
        ControlPlan::Loop { trip, branchy } => (trip, branchy),
    }
}

/// Per-iteration index stride under a loop: the total output lane count,
/// so consecutive iterations write adjacent, disjoint store runs (the
/// cross-iteration adjacency unroll-and-SLP exists to exploit).
fn out_stride(plan: &Plan) -> usize {
    plan.groups.iter().map(|g| g.lanes).sum()
}

/// Smallest buffer length (elements) covering every access at `i = 0`.
fn min_len(plan: &Plan) -> usize {
    let (trip, branchy) = control_shape(plan);
    let stride = out_stride(plan);
    let mut out_extent = 0;
    let mut in_extent = 0;
    for g in &plan.groups {
        in_extent = in_extent.max(max_load_base(&g.shape) + g.lanes);
        out_extent += g.lanes;
    }
    if branchy {
        // Each diamond gates on `IN0` loaded at the lane's output offset.
        in_extent = in_extent.max(out_extent);
    }
    // Iteration `k` shifts every body access by `k * stride`.
    let shift = (trip - 1) * stride;
    out_extent += shift;
    in_extent += shift;
    if let Some(r) = &plan.reduction {
        in_extent = in_extent.max(r.width);
        out_extent += 1;
    }
    out_extent.max(in_extent).max(1)
}

fn max_load_base(shape: &Shape) -> usize {
    match shape {
        Shape::Load { base, .. } => *base,
        Shape::Const(_) => 0,
        Shape::Bin { lhs, rhs, .. } | Shape::Mixed { lhs, rhs, .. } => {
            max_load_base(lhs).max(max_load_base(rhs))
        }
        Shape::Chain { operands, .. } => operands.iter().map(max_load_base).max().unwrap_or(0),
    }
}

/// Lane emission order: `reversed` groups store high lanes first, so seed
/// collection must find the chain by address, not program order.
fn lane_order(lanes: usize, reversed: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lanes).collect();
    if reversed {
        order.reverse();
    }
    order
}

/// Whether lane `l` swaps the operands of a commutative [`Shape::Bin`].
fn swaps(swap_mask: u8, l: usize) -> bool {
    (swap_mask >> (l % 8)) & 1 == 1
}

/// Chain operand visit order for lane `l`: rotate left by `rot * l`.
fn chain_order(n: usize, rot: usize, l: usize) -> Vec<usize> {
    let start = (rot * l) % n;
    (0..n).map(|k| (start + k) % n).collect()
}

// ---------------------------------------------------------------------------
// Direct IR leg.
// ---------------------------------------------------------------------------

struct IrCtx {
    out: ValueId,
    ins: Vec<ValueId>,
    i: ValueId,
    int: bool,
    /// Loop-body context: the induction variable and the per-iteration
    /// index stride (every access adds `iv * stride`).
    iv: Option<(ValueId, usize)>,
}

/// Append an instruction to block `bb` (CFG construction) or to the
/// straight-line body.
fn emit(
    f: &mut Function,
    bb: Option<BlockId>,
    op: Opcode,
    ty: Type,
    args: impl Into<Operands>,
    attr: InstAttr,
) -> ValueId {
    match bb {
        Some(b) => f.push_in_block(b, op, ty, args, attr),
        None => f.push(op, ty, args, attr),
    }
}

fn build_ir(plan: &Plan) -> Function {
    let elem_ty = if plan.int { Type::I64 } else { Type::F64 };
    let mut f = Function::new("fuzz");
    let out = f.add_param("OUT", Type::PTR);
    let ins: Vec<ValueId> =
        (0..plan.arrays).map(|a| f.add_param(format!("IN{a}"), Type::PTR)).collect();
    let i = f.add_param("i", Type::I64);
    let mut cx = IrCtx { out, ins, i, int: plan.int, iv: None };
    let stride = out_stride(plan);

    match plan.control {
        ControlPlan::None => {
            let mut bb = None;
            emit_groups(&mut f, &cx, plan, elem_ty, false, &mut bb);
            emit_reduction(&mut f, &cx, plan, elem_ty, stride, bb);
        }
        ControlPlan::IfDiamond => {
            let entry = f.init_cfg();
            let mut bb = Some(entry);
            emit_groups(&mut f, &cx, plan, elem_ty, true, &mut bb);
            emit_reduction(&mut f, &cx, plan, elem_ty, stride, bb);
            f.set_term(bb.expect("CFG mode"), Terminator::Ret);
        }
        ControlPlan::Loop { trip, branchy } => {
            let entry = f.init_cfg();
            let body = f.add_block();
            let exit = f.add_block();
            let iv = f.add_block_param(body, None, Type::I64);
            let trip_c = f.const_i64(trip as i64);
            f.set_term(entry, Terminator::Loop { trip: trip_c, body, init: vec![], exit });
            cx.iv = Some((iv, stride));
            let mut bb = Some(body);
            emit_groups(&mut f, &cx, plan, elem_ty, branchy, &mut bb);
            f.set_term(bb.expect("CFG mode"), Terminator::Continue { args: vec![] });
            cx.iv = None;
            emit_reduction(&mut f, &cx, plan, elem_ty, trip * stride, Some(exit));
            f.set_term(exit, Terminator::Ret);
        }
    }
    f
}

/// Emit every store group into `bb`, advancing it through diamond joins
/// when `branchy`.
fn emit_groups(
    f: &mut Function,
    cx: &IrCtx,
    plan: &Plan,
    elem_ty: Type,
    branchy: bool,
    bb: &mut Option<BlockId>,
) {
    let mut out_base = 0;
    for g in &plan.groups {
        for l in lane_order(g.lanes, g.reversed) {
            let mut v = emit_shape(f, cx, &g.shape, l, elem_ty, *bb);
            if branchy {
                v = emit_diamond(f, cx, v, out_base + l, elem_ty, bb);
            }
            emit_store(f, cx, cx.out, out_base + l, v, *bb);
        }
        out_base += g.lanes;
    }
}

fn emit_reduction(
    f: &mut Function,
    cx: &IrCtx,
    plan: &Plan,
    elem_ty: Type,
    out_base: usize,
    bb: Option<BlockId>,
) {
    let Some(r) = &plan.reduction else { return };
    let mut acc = emit_load(f, cx, cx.ins[r.arr], 0, elem_ty, bb);
    for k in 1..r.width {
        let e = emit_load(f, cx, cx.ins[r.arr], k, elem_ty, bb);
        acc = emit(f, bb, r.op, elem_ty, [acc, e], InstAttr::None);
    }
    emit_store(f, cx, cx.out, out_base, acc, bb);
}

/// Gate a lane value behind a branch diamond:
/// `if IN0[idx] < T { v } else { IN0[idx] }` with empty arm blocks, the
/// exact shape if-conversion turns into a `select`. Advances `bb` to the
/// join block.
fn emit_diamond(
    f: &mut Function,
    cx: &IrCtx,
    v: ValueId,
    off: usize,
    elem_ty: Type,
    bb: &mut Option<BlockId>,
) -> ValueId {
    let cur = bb.expect("branchy emission requires CFG mode");
    let gate = emit_load(f, cx, cx.ins[0], off, elem_ty, Some(cur));
    // Thresholds sit inside the salted init ranges (ints are -300..720,
    // floats 0.25..4.1875), so both arms are exercised.
    let (op, attr, thresh) = if cx.int {
        (Opcode::ICmp, InstAttr::IntPred(IntPred::Slt), f.const_i64(0))
    } else {
        (Opcode::FCmp, InstAttr::FloatPred(FloatPred::Olt), f.const_float(ScalarType::F64, 1.0))
    };
    let cond = f.push_in_block(cur, op, Type::Scalar(ScalarType::I8), [gate, thresh], attr);
    let then_b = f.add_block();
    let else_b = f.add_block();
    let join = f.add_block();
    let res = f.add_block_param(join, None, elem_ty);
    f.set_term(
        cur,
        Terminator::Br {
            cond,
            then_to: then_b,
            then_args: vec![],
            else_to: else_b,
            else_args: vec![],
        },
    );
    f.set_term(then_b, Terminator::Jump { target: join, args: vec![v] });
    f.set_term(else_b, Terminator::Jump { target: join, args: vec![gate] });
    *bb = Some(join);
    res
}

fn emit_index(
    f: &mut Function,
    cx: &IrCtx,
    ptr: ValueId,
    off: usize,
    bb: Option<BlockId>,
) -> ValueId {
    let c = f.const_i64(off as i64);
    let mut idx = emit(f, bb, Opcode::Add, Type::I64, [cx.i, c], InstAttr::None);
    if let Some((iv, stride)) = cx.iv {
        let s = f.const_i64(stride as i64);
        let scaled = emit(f, bb, Opcode::Mul, Type::I64, [s, iv], InstAttr::None);
        idx = emit(f, bb, Opcode::Add, Type::I64, [idx, scaled], InstAttr::None);
    }
    emit(f, bb, Opcode::Gep, Type::PTR, [ptr, idx], InstAttr::ElemBytes(8))
}

fn emit_load(
    f: &mut Function,
    cx: &IrCtx,
    ptr: ValueId,
    off: usize,
    ty: Type,
    bb: Option<BlockId>,
) -> ValueId {
    let g = emit_index(f, cx, ptr, off, bb);
    emit(f, bb, Opcode::Load, ty, [g], InstAttr::None)
}

fn emit_store(
    f: &mut Function,
    cx: &IrCtx,
    out: ValueId,
    off: usize,
    v: ValueId,
    bb: Option<BlockId>,
) {
    let g = emit_index(f, cx, out, off, bb);
    emit(f, bb, Opcode::Store, Type::Void, [v, g], InstAttr::None);
}

fn emit_const(f: &mut Function, cx: &IrCtx, c: i64) -> ValueId {
    if cx.int {
        f.const_i64(c)
    } else {
        f.const_float(ScalarType::F64, c as f64)
    }
}

fn emit_shape(
    f: &mut Function,
    cx: &IrCtx,
    shape: &Shape,
    l: usize,
    ty: Type,
    bb: Option<BlockId>,
) -> ValueId {
    match shape {
        Shape::Load { arr, base } => emit_load(f, cx, cx.ins[*arr], base + l, ty, bb),
        Shape::Const(c) => emit_const(f, cx, *c),
        Shape::Bin { op, swap_mask, lhs, rhs } => {
            let a = emit_shape(f, cx, lhs, l, ty, bb);
            let b = emit_shape(f, cx, rhs, l, ty, bb);
            let (a, b) = if swaps(*swap_mask, l) { (b, a) } else { (a, b) };
            emit(f, bb, *op, ty, [a, b], InstAttr::None)
        }
        Shape::Chain { op, rot, operands } => {
            let vals: Vec<ValueId> =
                operands.iter().map(|o| emit_shape(f, cx, o, l, ty, bb)).collect();
            let order = chain_order(vals.len(), *rot, l);
            let mut acc = vals[order[0]];
            for &k in &order[1..] {
                acc = emit(f, bb, *op, ty, [acc, vals[k]], InstAttr::None);
            }
            acc
        }
        Shape::Mixed { op_even, op_odd, lhs, rhs } => {
            let a = emit_shape(f, cx, lhs, l, ty, bb);
            let b = emit_shape(f, cx, rhs, l, ty, bb);
            let op = if l.is_multiple_of(2) { *op_even } else { *op_odd };
            emit(f, bb, op, ty, [a, b], InstAttr::None)
        }
    }
}

// ---------------------------------------------------------------------------
// SLC leg.
// ---------------------------------------------------------------------------

fn op_str(op: Opcode) -> &'static str {
    match op {
        Opcode::Add | Opcode::FAdd => "+",
        Opcode::Sub | Opcode::FSub => "-",
        Opcode::Mul | Opcode::FMul => "*",
        Opcode::And => "&",
        Opcode::Or => "|",
        Opcode::Xor => "^",
        Opcode::Shl => "<<",
        other => panic!("no SLC rendering for {other}"),
    }
}

/// Render a buffer index: `i + off` plus `stride*k` inside a loop body.
fn render_index(off: usize, loop_stride: Option<usize>) -> String {
    match loop_stride {
        Some(s) => format!("i + {off} + {s}*k"),
        None => format!("i + {off}"),
    }
}

fn render_slc(plan: &Plan) -> String {
    let ty = if plan.int { "i64" } else { "f64" };
    let mut params = format!("{ty}* OUT");
    for a in 0..plan.arrays {
        params.push_str(&format!(", {ty}* IN{a}"));
    }
    params.push_str(", i64 i");

    let (trip, branchy) = control_shape(plan);
    let in_loop = trip > 1;
    let ls = in_loop.then(|| out_stride(plan));
    let pad = if in_loop { "        " } else { "    " };
    let thresh = if plan.int { "0" } else { "1.0" };

    let mut body = String::new();
    if in_loop {
        body.push_str(&format!("    loop k in 0..{trip} {{\n"));
    }
    let mut out_base = 0;
    for g in &plan.groups {
        for l in lane_order(g.lanes, g.reversed) {
            let expr = render_shape(&g.shape, l, plan.int, ls);
            let idx = render_index(out_base + l, ls);
            if branchy {
                // The gate and value are bound first so the `if` arms are
                // bare variable references — empty arm blocks, matching
                // the direct-IR leg and the if-converter's legality rule.
                let n = out_base + l;
                body.push_str(&format!("{pad}let g{n}: {ty} = IN0[{idx}];\n"));
                body.push_str(&format!("{pad}let v{n}: {ty} = {expr};\n"));
                body.push_str(&format!(
                    "{pad}OUT[{idx}] = if g{n} < {thresh} {{ v{n} }} else {{ g{n} }};\n"
                ));
            } else {
                body.push_str(&format!("{pad}OUT[{idx}] = {expr};\n"));
            }
        }
        out_base += g.lanes;
    }
    if in_loop {
        body.push_str("    }\n");
    }
    if let Some(r) = &plan.reduction {
        let total = trip * out_stride(plan);
        let mut expr = format!("IN{}[i + 0]", r.arr);
        for k in 1..r.width {
            expr = format!("({expr} {} IN{}[i + {k}])", op_str(r.op), r.arr);
        }
        body.push_str(&format!("    OUT[i + {total}] = {expr};\n"));
    }
    format!("kernel fuzz({params}) {{\n{body}}}\n")
}

fn render_const(c: i64, int: bool) -> String {
    if int {
        format!("{c}")
    } else {
        format!("{c}.0")
    }
}

fn render_shape(shape: &Shape, l: usize, int: bool, ls: Option<usize>) -> String {
    match shape {
        Shape::Load { arr, base } => format!("IN{arr}[{}]", render_index(base + l, ls)),
        Shape::Const(c) => render_const(*c, int),
        Shape::Bin { op, swap_mask, lhs, rhs } => {
            let a = render_shape(lhs, l, int, ls);
            let b = render_shape(rhs, l, int, ls);
            let (a, b) = if swaps(*swap_mask, l) { (b, a) } else { (a, b) };
            format!("({a} {} {b})", op_str(*op))
        }
        Shape::Chain { op, rot, operands } => {
            let vals: Vec<String> = operands.iter().map(|o| render_shape(o, l, int, ls)).collect();
            let order = chain_order(vals.len(), *rot, l);
            let mut acc = vals[order[0]].clone();
            for &k in &order[1..] {
                acc = format!("({acc} {} {})", op_str(*op), vals[k]);
            }
            acc
        }
        Shape::Mixed { op_even, op_odd, lhs, rhs } => {
            let a = render_shape(lhs, l, int, ls);
            let b = render_shape(rhs, l, int, ls);
            let op = if l.is_multiple_of(2) { *op_even } else { *op_odd };
            format!("({a} {} {b})", op_str(op))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::GroupPlan;
    use rand::{Rng, SeedableRng};

    /// Both construction legs of the same plan must compute identical
    /// results (the SLC leg is only a different road to the same program).
    #[test]
    fn slc_and_ir_legs_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut checked = 0;
        for _ in 0..200 {
            let len = rng.gen_range(8usize..96);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut plan = Plan::decode(&bytes);
            plan.via_slc = false;
            let ir_leg = build(&plan).expect("direct IR leg cannot fail");
            plan.via_slc = true;
            let slc_leg = build(&plan).expect("generated SLC must compile");
            let a = crate::exec::run_capture(&ir_leg.function, &plan, ir_leg.min_len, 3)
                .expect("IR leg executes");
            let b = crate::exec::run_capture(&slc_leg.function, &plan, slc_leg.min_len, 3)
                .expect("SLC leg executes");
            assert!(
                crate::exec::compare(&a, &b, true).is_none(),
                "legs diverged for {plan:?}\n{}",
                slc_leg.slc.unwrap()
            );
            checked += 1;
        }
        assert_eq!(checked, 200);
    }

    #[test]
    fn reduction_renders_and_builds() {
        let plan = Plan {
            int: true,
            via_slc: true,
            arrays: 1,
            groups: vec![GroupPlan {
                lanes: 4,
                reversed: false,
                shape: Shape::Load { arr: 0, base: 0 },
            }],
            reduction: Some(crate::plan::ReductionPlan { op: Opcode::Add, arr: 0, width: 5 }),
            control: ControlPlan::None,
        };
        let p = build(&plan).unwrap();
        assert_eq!(p.min_len, 5);
        assert!(p.slc.unwrap().contains("OUT[i + 4]"));
    }

    fn control_base(int: bool, control: ControlPlan) -> Plan {
        let op = if int { Opcode::Add } else { Opcode::FAdd };
        Plan {
            int,
            via_slc: false,
            arrays: 1,
            groups: vec![GroupPlan {
                lanes: 4,
                reversed: false,
                shape: Shape::Bin {
                    op,
                    swap_mask: 0,
                    lhs: Box::new(Shape::Load { arr: 0, base: 0 }),
                    rhs: Box::new(Shape::Const(3)),
                },
            }],
            reduction: Some(crate::plan::ReductionPlan { op, arr: 0, width: 4 }),
            control,
        }
    }

    /// Control plans build a verifying CFG on both legs, and the legs
    /// still agree.
    #[test]
    fn control_legs_build_cfgs_and_agree() {
        for int in [true, false] {
            for control in [
                ControlPlan::Loop { trip: 3, branchy: false },
                ControlPlan::Loop { trip: 4, branchy: true },
                ControlPlan::IfDiamond,
            ] {
                let mut plan = control_base(int, control);
                let ir_leg = build(&plan).expect("direct IR leg cannot fail");
                assert!(
                    ir_leg.function.cfg().is_some(),
                    "{control:?} must build a CFG on the IR leg"
                );
                lslp_ir::verify_function(&ir_leg.function)
                    .unwrap_or_else(|e| panic!("{control:?} (IR leg): {e}"));
                plan.via_slc = true;
                let slc_leg = build(&plan).expect("generated SLC must compile");
                assert!(slc_leg.function.cfg().is_some(), "{control:?} (SLC leg) must be a CFG");
                let a = crate::exec::run_capture(&ir_leg.function, &plan, ir_leg.min_len, 5)
                    .expect("IR leg executes");
                let b = crate::exec::run_capture(&slc_leg.function, &plan, slc_leg.min_len, 5)
                    .expect("SLC leg executes");
                assert!(
                    crate::exec::compare(&a, &b, true).is_none(),
                    "legs diverged for {plan:?}\n{}",
                    slc_leg.slc.unwrap()
                );
            }
        }
    }

    /// Loop iterations write disjoint adjacent runs; `min_len` covers the
    /// full footprint.
    #[test]
    fn loop_min_len_covers_every_iteration() {
        let plan = control_base(true, ControlPlan::Loop { trip: 3, branchy: true });
        let p = build(&plan).unwrap();
        // 4 lanes * 3 iterations + 1 reduction slot.
        assert_eq!(p.min_len, 13);
        // Shifting the index by the salt's `i` offset must stay in bounds.
        for salt in 0..6 {
            crate::exec::run_capture(&p.function, &plan, p.min_len, salt)
                .unwrap_or_else(|e| panic!("salt {salt}: {e}"));
        }
    }
}
