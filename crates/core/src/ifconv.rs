//! If-conversion: branch diamonds become `select`s.
//!
//! The frontend lowers `if`/`else` expressions to a branch diamond — a
//! block ending in [`Terminator::Br`] whose two edges reconverge at a join
//! block that receives the chosen values as block parameters. The
//! vectorizer only sees straight-line code, so this pass rewrites each
//! diamond into speculated arm instructions plus one `select` per join
//! parameter, then (when the whole CFG has collapsed to a linear chain of
//! jumps) dissolves the CFG back into a straight-line body.
//!
//! ## Legality
//!
//! Both arms are *speculated*: their instructions execute regardless of the
//! condition. An arm therefore qualifies only when every instruction in it
//! is safe to execute unconditionally — no memory access (`load`/`store`)
//! and no trapping arithmetic (`sdiv`/`udiv`/`srem`/`urem`). Float division
//! does not trap (it produces ±inf/NaN) and address arithmetic (`gep`)
//! merely computes a value, so both speculate fine. Each arm must also be
//! either the join itself (an empty arm: the edge carries the values
//! directly) or a block with a single predecessor and no parameters that
//! ends in a jump to the join — anything richer (nested control flow in an
//! arm) is converted inside-out by the fixpoint loop below.

use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{BlockId, Function, InstAttr, Module, Opcode, Terminator, ValueId};

/// Can this instruction be executed unconditionally?
fn speculatable(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::Load | Opcode::Store | Opcode::SDiv | Opcode::UDiv | Opcode::SRem | Opcode::URem
    )
}

/// One resolved arm of a diamond: the join it reaches, the values it sends,
/// and the block to hoist from (`None` when the edge goes to the join
/// directly).
struct Arm {
    join: BlockId,
    args: Vec<ValueId>,
    hoist: Option<BlockId>,
}

/// Resolve one edge of a `br` into an [`Arm`], or `None` when it cannot be
/// if-converted.
fn resolve_arm(
    f: &Function,
    from: BlockId,
    target: BlockId,
    args: &[ValueId],
    preds: &[usize],
) -> Option<Arm> {
    let blk = f.block(target);
    // Case 1: the edge reaches the join directly; the args are the values.
    // Distinguishing "join" from "arm" is simple: an arm has no parameters,
    // carries no edge arguments, and ends in a jump.
    match blk.term() {
        Terminator::Jump { target: join, args: send }
            if args.is_empty()
                && blk.params().is_empty()
                && preds[target.index()] == 1
                && target != from =>
        {
            // Case 2: a one-block arm. Every instruction must speculate.
            let ok =
                blk.insts().iter().all(|&id| f.inst(id).is_some_and(|inst| speculatable(inst.op)));
            if !ok {
                return None;
            }
            Some(Arm { join: *join, args: send.clone(), hoist: Some(target) })
        }
        _ => Some(Arm { join: target, args: args.to_vec(), hoist: None }),
    }
}

/// Predecessor counts per block, over every block's terminator (stale
/// unreachable edges only make the single-predecessor test conservative).
fn pred_counts(f: &Function) -> Vec<usize> {
    let cfg = f.cfg().expect("CFG function");
    let mut preds = vec![0usize; cfg.num_blocks()];
    for b in cfg.block_ids() {
        for s in cfg.block(b).term().successors() {
            preds[s.index()] += 1;
        }
    }
    preds
}

/// If-convert every eligible diamond in `f`, then collapse the CFG to a
/// straight-line body if only linear jumps remain. Returns the number of
/// diamonds converted. No-op on straight-line functions.
pub fn run(f: &mut Function) -> usize {
    run_with(f, false)
}

/// [`run`] with fault injection: `swap_arms` implements
/// [`crate::config::Sabotage::SwapIfArms`] (each select picks the
/// else-value when the condition holds). Production callers pass `false`.
pub fn run_with(f: &mut Function, swap_arms: bool) -> usize {
    if f.cfg().is_none() {
        return 0;
    }
    let mut converted = 0;
    // Fixpoint: converting an inner diamond can linearise the arm of an
    // outer one. Bounded by the block count — each round converts at least
    // one branch or stops.
    while let Some(b) = find_candidate(f) {
        convert(f, b, swap_arms);
        converted += 1;
    }
    flatten_linear_cfg(f);
    converted
}

/// Find one convertible diamond, preferring later blocks so nested
/// diamonds convert inside-out.
fn find_candidate(f: &Function) -> Option<BlockId> {
    let cfg = f.cfg()?;
    let preds = pred_counts(f);
    for b in cfg.block_ids().rev() {
        let Terminator::Br { then_to, then_args, else_to, else_args, .. } = cfg.block(b).term()
        else {
            continue;
        };
        let Some(t) = resolve_arm(f, b, *then_to, then_args, &preds) else { continue };
        let Some(e) = resolve_arm(f, b, *else_to, else_args, &preds) else { continue };
        if t.join != e.join || t.args.len() != e.args.len() || t.join == b {
            continue;
        }
        return Some(b);
    }
    None
}

/// Rewrite the diamond at `b`: hoist the arms, emit selects, and replace
/// the branch with an unconditional jump to the join.
fn convert(f: &mut Function, b: BlockId, swap_arms: bool) {
    let preds = pred_counts(f);
    let Terminator::Br { cond, then_to, then_args, else_to, else_args } = f.block(b).term().clone()
    else {
        unreachable!("candidate must end in br");
    };
    let t = resolve_arm(f, b, then_to, &then_args, &preds).expect("candidate arm");
    let e = resolve_arm(f, b, else_to, &else_args, &preds).expect("candidate arm");

    // Hoist the arm instructions into `b`, then-arm first. Arms are
    // independent single-predecessor blocks, so order between them is
    // irrelevant; both only depend on values visible in `b`.
    let mut insts = f.block(b).insts().to_vec();
    for arm in [&t, &e] {
        if let Some(src) = arm.hoist {
            insts.extend_from_slice(f.block(src).insts());
            f.set_block_insts(src, Vec::new());
        }
    }
    f.set_block_insts(b, insts);

    // One select per join parameter; identical operands short-circuit.
    let join = t.join;
    let mut out = Vec::with_capacity(t.args.len());
    for (&tv, &ev) in t.args.iter().zip(&e.args) {
        if tv == ev {
            out.push(tv);
        } else {
            let ty = f.ty(tv);
            let (a, b2) = if swap_arms { (ev, tv) } else { (tv, ev) };
            out.push(f.push_in_block(b, Opcode::Select, ty, vec![cond, a, b2], InstAttr::None));
        }
    }
    f.set_term(b, Terminator::Jump { target: join, args: out });
}

/// If the reachable CFG is a linear chain of jumps ending in `ret`,
/// substitute block parameters with the values their unique edge carries
/// and dissolve the CFG into a straight-line body. Returns whether the
/// function is straight-line afterwards.
pub(crate) fn flatten_linear_cfg(f: &mut Function) -> bool {
    let Some(cfg) = f.cfg() else { return true };
    // Read-only scan first: mutate nothing until the whole chain is known
    // to be linear, so a bail-out leaves the function untouched.
    let mut chain = Vec::new();
    let mut visited = HashSet::default();
    let mut cur = cfg.entry();
    loop {
        if !visited.insert(cur) {
            return false; // jump cycle
        }
        chain.push(cur);
        match cfg.block(cur).term() {
            Terminator::Ret => break,
            Terminator::Jump { target, .. } => cur = *target,
            _ => return false, // br / loop / continue: still real control flow
        }
    }
    // Substitute parameters and collect the linearised body. Each edge
    // argument is resolved through the map first, since it may itself be a
    // parameter of an earlier block in the chain; one batched rewrite then
    // applies every substitution.
    let mut body = Vec::new();
    let mut subst: HashMap<ValueId, ValueId> = HashMap::default();
    for &b in &chain {
        body.extend_from_slice(f.block(b).insts());
        if let Terminator::Jump { target, args } = f.block(b).term().clone() {
            let params = f.block(target).params().to_vec();
            debug_assert_eq!(params.len(), args.len(), "verified edge arity");
            for (p, a) in params.into_iter().zip(args) {
                subst.insert(p, crate::unroll::resolve(&subst, a));
            }
            f.set_block_params(target, Vec::new());
        }
    }
    f.replace_uses_with(&subst);
    f.dissolve_cfg(body);
    true
}

/// Run if-conversion over every function of a module; returns the total
/// number of diamonds converted.
pub fn run_module(m: &mut Module) -> usize {
    m.functions.iter_mut().map(run).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{parse_function, print_function};

    fn converted(src: &str) -> (Function, usize) {
        let mut f = parse_function(src).unwrap();
        lslp_ir::verify_function(&f).unwrap();
        let n = run(&mut f);
        lslp_ir::verify_function(&f).unwrap();
        (f, n)
    }

    #[test]
    fn empty_arm_diamond_becomes_select() {
        let (f, n) = converted(
            "func @max(%A: ptr) {
bb0:
  %x = load i64, %A
  %p = gep %A, 1, 8
  %y = load i64, %p
  %c = icmp sgt i64 %x, %y
  br %c, bb1(%x), bb1(%y)
bb1(%m: i64):
  store i64 %m, %A
  ret
}",
        );
        assert_eq!(n, 1);
        let text = print_function(&f);
        assert!(f.cfg().is_none(), "must flatten:\n{text}");
        assert!(text.contains("select i64 %c, %x, %y"), "{text}");
    }

    #[test]
    fn one_block_arms_are_hoisted() {
        let (f, n) = converted(
            "func @clamp(%A: ptr) {
bb0:
  %x = load i64, %A
  %c = icmp slt i64 %x, 0
  br %c, bb1, bb2
bb1:
  %neg = sub i64 0, %x
  jump bb3(%neg)
bb2:
  %dbl = add i64 %x, %x
  jump bb3(%dbl)
bb3(%v: i64):
  store i64 %v, %A
  ret
}",
        );
        assert_eq!(n, 1);
        let text = print_function(&f);
        assert!(f.cfg().is_none(), "must flatten:\n{text}");
        assert!(text.contains("sub"), "then-arm speculated: {text}");
        assert!(text.contains("add"), "else-arm speculated: {text}");
        assert!(text.contains("select"), "{text}");
    }

    #[test]
    fn memory_access_in_arm_blocks_conversion() {
        let (f, n) = converted(
            "func @guarded(%A: ptr) {
bb0:
  %x = load i64, %A
  %c = icmp sgt i64 %x, 0
  br %c, bb1, bb2
bb1:
  %p = gep %A, %x, 8
  %v = load i64, %p
  jump bb3(%v)
bb2:
  jump bb3(0)
bb3(%r: i64):
  store i64 %r, %A
  ret
}",
        );
        assert_eq!(n, 0, "a load must not be speculated");
        assert!(f.cfg().is_some(), "CFG must survive");
    }

    #[test]
    fn nested_diamonds_convert_inside_out() {
        let (f, n) = converted(
            "func @nest(%A: ptr) {
bb0:
  %x = load i64, %A
  %c0 = icmp sgt i64 %x, 0
  br %c0, bb1, bb4(0)
bb1:
  %c1 = icmp sgt i64 %x, 10
  br %c1, bb2, bb3
bb2:
  jump bb4(10)
bb3:
  jump bb4(%x)
bb4(%r: i64):
  store i64 %r, %A
  ret
}",
        );
        assert_eq!(n, 2, "both diamonds must convert");
        assert!(f.cfg().is_none(), "must flatten:\n{}", print_function(&f));
    }

    #[test]
    fn straight_line_functions_are_untouched() {
        let mut f = parse_function(
            "func @k(%A: ptr) {
               %x = load i64, %A
               store i64 %x, %A
             }",
        )
        .unwrap();
        let before = print_function(&f);
        assert_eq!(run(&mut f), 0);
        assert_eq!(print_function(&f), before);
    }
}
