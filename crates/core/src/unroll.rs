//! Unroll-and-SLP: fully unroll small counted loops.
//!
//! A [`Terminator::Loop`] region with a compile-time trip count is the
//! frontend's lowering of `loop i in 0..N { … }`. The straight-line
//! vectorizer cannot see across iterations, so this pass peels the region
//! completely: each iteration's instructions are cloned into the loop's
//! header block with the induction variable rewritten to the iteration
//! constant and loop-carried parameters rewritten to the previous
//! iteration's values. Adjacent-store seeding then finds packs *across*
//! iterations — the paper's pipeline applied to loops (unroll, then SLP).
//!
//! ## Eligibility and budget
//!
//! The body region must be a linear chain of blocks ending in `continue`
//! (run [`crate::ifconv`] first — it turns branchy bodies into selects).
//! To keep compile time and code growth bounded, a loop is unrolled only
//! when `trip × body-instructions ≤` [`UNROLL_BUDGET`]; larger loops keep
//! their CFG and simply stay scalar.

use lslp_ir::hash::{HashMap, HashSet};
use lslp_ir::{BlockId, Function, Module, Terminator, ValueId};

/// Maximum `trip × body-instruction` product a loop may have and still be
/// fully unrolled.
pub const UNROLL_BUDGET: usize = 256;

/// The read-only scan of one loop region: the chain of body blocks and a
/// proof that it is linear.
struct Region {
    /// Body blocks in execution order.
    chain: Vec<BlockId>,
    /// Total instruction count across the chain.
    insts: usize,
}

/// Walk the body region from `body`, requiring a linear `jump` chain that
/// ends in `continue`.
fn scan_region(f: &Function, body: BlockId) -> Option<Region> {
    let cfg = f.cfg()?;
    let mut chain = Vec::new();
    let mut visited = HashSet::default();
    let mut insts = 0;
    let mut cur = body;
    loop {
        if !visited.insert(cur) {
            return None;
        }
        chain.push(cur);
        insts += cfg.block(cur).insts().len();
        match cfg.block(cur).term() {
            Terminator::Continue { .. } => return Some(Region { chain, insts }),
            Terminator::Jump { target, .. } => cur = *target,
            _ => return None, // br/ret/nested loop: not a linear body
        }
    }
}

/// Resolve `v` through a substitution map (the identity for unmapped values).
pub(crate) fn resolve(map: &HashMap<ValueId, ValueId>, v: ValueId) -> ValueId {
    *map.get(&v).unwrap_or(&v)
}

/// Fully unroll every in-budget counted loop in `f`, then collapse the CFG
/// to a straight-line body if only linear jumps remain. Returns the number
/// of loops unrolled. No-op on straight-line functions.
pub fn run(f: &mut Function) -> usize {
    if f.cfg().is_none() {
        return 0;
    }
    let mut unrolled = 0;
    while let Some((header, region)) = find_candidate(f) {
        unroll_at(f, header, &region);
        unrolled += 1;
    }
    crate::ifconv::flatten_linear_cfg(f);
    unrolled
}

/// Find one unrollable loop header and its scanned region.
fn find_candidate(f: &Function) -> Option<(BlockId, Region)> {
    let cfg = f.cfg()?;
    for b in cfg.block_ids() {
        let Terminator::Loop { trip, .. } = cfg.block(b).term() else { continue };
        let trip = f.as_const(*trip).and_then(|c| c.as_int()).unwrap_or(0);
        if trip < 1 {
            continue;
        }
        let Some(region) = scan_region(
            f,
            match cfg.block(b).term() {
                Terminator::Loop { body, .. } => *body,
                _ => unreachable!(),
            },
        ) else {
            continue;
        };
        if (trip as usize).saturating_mul(region.insts) > UNROLL_BUDGET {
            continue;
        }
        return Some((b, region));
    }
    None
}

/// Clone the region `trip` times into the header block and jump straight
/// to the exit.
fn unroll_at(f: &mut Function, header: BlockId, region: &Region) {
    let Terminator::Loop { trip, body, init, exit } = f.block(header).term().clone() else {
        unreachable!("candidate must end in loop");
    };
    let trip = f.as_const(trip).and_then(|c| c.as_int()).expect("verified constant trip");
    let body_params = f.block(body).params().to_vec();
    let (iv, carried_params) = body_params.split_first().expect("verified iv parameter");

    let mut carried: Vec<ValueId> = init.clone();
    for k in 0..trip {
        let mut map: HashMap<ValueId, ValueId> = HashMap::default();
        let kc = f.const_i64(k);
        map.insert(*iv, kc);
        for (&p, &v) in carried_params.iter().zip(&carried) {
            map.insert(p, v);
        }
        for &blk in &region.chain {
            for id in f.block(blk).insts().to_vec() {
                let inst = f.inst(id).expect("blocks contain instructions").clone();
                let args = inst.args.iter().map(|&a| resolve(&map, a)).collect();
                let clone = f.push_in_block(header, inst.op, inst.ty, args, inst.attr.clone());
                map.insert(id, clone);
            }
            match f.block(blk).term().clone() {
                Terminator::Continue { args } => {
                    carried = args.into_iter().map(|a| resolve(&map, a)).collect();
                }
                Terminator::Jump { target, args } => {
                    let params = f.block(target).params().to_vec();
                    for (p, a) in params.into_iter().zip(args) {
                        let r = resolve(&map, a);
                        map.insert(p, r);
                    }
                }
                _ => unreachable!("scan_region admits only jump/continue"),
            }
        }
    }

    // Wire the final carried values into the exit block's parameters, then
    // bypass the loop entirely.
    let exit_params = f.block(exit).params().to_vec();
    debug_assert_eq!(exit_params.len(), carried.len(), "verified exit arity");
    let mut exit_map: HashMap<ValueId, ValueId> = HashMap::default();
    for (p, v) in exit_params.into_iter().zip(carried) {
        let r = resolve(&exit_map, v);
        exit_map.insert(p, r);
    }
    f.replace_uses_with(&exit_map);
    f.set_block_params(exit, Vec::new());
    // Empty the body blocks so their instructions are not duplicated
    // across blocks (the clones in the header are the program now).
    for &blk in &region.chain {
        f.set_block_insts(blk, Vec::new());
        f.set_term(blk, Terminator::Ret);
    }
    f.set_term(header, Terminator::Jump { target: exit, args: Vec::new() });
}

/// Run unrolling over every function of a module; returns total loops
/// unrolled.
pub fn run_module(m: &mut Module) -> usize {
    m.functions.iter_mut().map(run).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{parse_function, print_function};

    fn unrolled(src: &str) -> (Function, usize) {
        let mut f = parse_function(src).unwrap();
        lslp_ir::verify_function(&f).unwrap();
        let n = run(&mut f);
        lslp_ir::verify_function(&f).unwrap();
        (f, n)
    }

    #[test]
    fn counted_loop_fully_unrolls() {
        let (f, n) = unrolled(
            "func @cp(%A: ptr, %B: ptr) {
bb0:
  loop 4, bb1, bb2
bb1(%i: i64):
  %p = gep %B, %i, 8
  %x = load i64, %p
  %q = gep %A, %i, 8
  store i64 %x, %q
  continue
bb2:
  ret
}",
        );
        assert_eq!(n, 1);
        let text = print_function(&f);
        assert!(f.cfg().is_none(), "must flatten:\n{text}");
        assert_eq!(f.body_len(), 16, "4 iterations × 4 instructions:\n{text}");
        // The induction variable is rewritten to constants per iteration.
        assert!(text.contains("gep %B, 0") && text.contains("gep %B, 3"), "{text}");
    }

    #[test]
    fn carried_values_chain_across_iterations() {
        let (f, n) = unrolled(
            "func @sum(%A: ptr) {
bb0:
  loop 3, bb1(0), bb2
bb1(%i: i64, %acc: i64):
  %p = gep %A, %i, 8
  %x = load i64, %p
  %next = add i64 %acc, %x
  continue %next
bb2(%total: i64):
  %q = gep %A, 3, 8
  store i64 %total, %q
  ret
}",
        );
        assert_eq!(n, 1);
        let text = print_function(&f);
        assert!(f.cfg().is_none(), "must flatten:\n{text}");
        // Three adds chained through the accumulator, store uses the last.
        assert_eq!(text.matches("add i64").count(), 3, "{text}");
    }

    #[test]
    fn over_budget_loops_are_kept() {
        // trip 64 × 5 insts = 320 > 256.
        let (f, n) = unrolled(
            "func @big(%A: ptr) {
bb0:
  loop 64, bb1(0), bb2
bb1(%i: i64, %acc: i64):
  %p = gep %A, %i, 8
  %x = load i64, %p
  %y = mul i64 %x, 3
  %z = add i64 %y, 1
  %next = add i64 %acc, %z
  continue %next
bb2(%total: i64):
  store i64 %total, %A
  ret
}",
        );
        assert_eq!(n, 0, "budget must hold the line");
        assert!(f.cfg().is_some());
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
