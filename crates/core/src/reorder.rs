//! Operand reordering strategies.
//!
//! The input is the operand matrix of a (multi-)node: for each lane, the
//! list of frontier operands (freely permutable because the owning
//! instructions are commutative). The output is the `slots × lanes`
//! `final_order` array of paper Listing 5: operands assigned to slots so
//! that each slot's lane values form the next vectorization candidates.
//!
//! Three strategies (selected by [`ReorderStrategy`]):
//!
//! * **NoReorder** (`SLP-NR`): keep the original order.
//! * **Opcode** (vanilla SLP): a per-lane swap of the two operands when the
//!   immediate opcodes differ and swapping matches the previous lane better
//!   — deliberately blind beyond one level, reproducing the failure modes of
//!   the paper's Listings 1–2.
//! * **LookAhead** (LSLP): the single-pass mode-tracking algorithm of
//!   Listing 5, with `get_best` (Listing 6) consulting the recursive
//!   look-ahead score of Listing 7 to break ties.

use lslp_analysis::AddrInfo;
use lslp_ir::{Function, InlineVec, Opcode, ValueId};

use crate::config::{ReorderStrategy, VectorizerConfig};
use crate::score::{consecutive_or_match, la_score_weighted};

/// Per-slot search state (paper Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OperandMode {
    /// Look for a constant.
    Const,
    /// Look for a load consecutive to the previous lane's.
    Load,
    /// Look for an instruction of the same opcode.
    Opcode,
    /// Look for the exact same value (broadcast).
    Splat,
    /// Vectorization failed for this slot; defer to other slots.
    Failed,
}

fn initial_mode(f: &Function, v: ValueId) -> OperandMode {
    if f.is_const(v) {
        OperandMode::Const
    } else if f.opcode(v) == Some(Opcode::Load) {
        OperandMode::Load
    } else {
        OperandMode::Opcode
    }
}

/// Operands of one lane, or candidates of one slot, held inline: a
/// multi-node's frontier is a few operands per lane.
type Inline<T> = InlineVec<T, 8>;

/// Listing 6: pick the best candidate for one slot in one lane.
///
/// Returns the chosen value (removed from `candidates`) and the slot's new
/// mode. `None` means the slot defers: either it was already failed, or no
/// candidate matched (newly failed) — leftovers are assigned afterwards.
fn get_best(
    f: &Function,
    addr: &AddrInfo,
    mode: OperandMode,
    last: ValueId,
    candidates: &mut Inline<ValueId>,
    cfg: &VectorizerConfig,
) -> (Option<ValueId>, OperandMode) {
    match mode {
        OperandMode::Failed => (None, OperandMode::Failed),
        OperandMode::Splat => {
            if let Some(pos) = candidates.iter().position(|&c| c == last) {
                let v = candidates.remove(pos);
                (Some(v), OperandMode::Splat)
            } else {
                // The broadcast is broken; degrade to generic matching.
                get_best(f, addr, OperandMode::Opcode, last, candidates, cfg)
            }
        }
        OperandMode::Const | OperandMode::Load | OperandMode::Opcode => {
            let matches: Inline<usize> = candidates
                .iter()
                .enumerate()
                .filter(|&(_, &c)| consecutive_or_match(f, addr, last, c))
                .map(|(i, _)| i)
                .collect();
            match matches.len() {
                0 => (None, OperandMode::Failed),
                1 => (Some(candidates.remove(matches[0])), mode),
                _ => {
                    let mut best = matches[0];
                    if mode == OperandMode::Opcode {
                        // Look-ahead tie-breaking over increasing levels.
                        for level in 1..=cfg.la_depth {
                            let scores: Inline<i64> = matches
                                .iter()
                                .map(|&ix| {
                                    la_score_weighted(
                                        f,
                                        addr,
                                        last,
                                        candidates[ix],
                                        level,
                                        cfg.score_agg,
                                        &cfg.score_weights,
                                    )
                                })
                                .collect();
                            if scores.windows(2).any(|w| w[0] != w[1]) {
                                let hi = scores
                                    .iter()
                                    .enumerate()
                                    .max_by_key(|&(_, s)| *s)
                                    .map(|(i, _)| i)
                                    .unwrap();
                                best = matches[hi];
                                break;
                            }
                        }
                    }
                    (Some(candidates.remove(best)), mode)
                }
            }
        }
    }
}

/// Listing 5: LSLP's top-level operand reordering.
///
/// `lane_operands[lane]` lists that lane's frontier operands; all lanes must
/// have the same length. Returns `final_order[slot][lane]`.
pub fn reorder_lookahead(
    f: &Function,
    addr: &AddrInfo,
    lane_operands: &[Vec<ValueId>],
    cfg: &VectorizerConfig,
) -> Vec<Vec<ValueId>> {
    let lanes = lane_operands.len();
    let nops = lane_operands[0].len();
    debug_assert!(lane_operands.iter().all(|l| l.len() == nops));

    let mut final_order: Vec<Vec<ValueId>> = (0..nops).map(|_| Vec::with_capacity(lanes)).collect();
    let mut mode: Inline<OperandMode> = InlineVec::new();
    // 1. Strip the first lane: accept its operands in their original order.
    for (i, &v) in lane_operands[0].iter().enumerate() {
        final_order[i].push(v);
        mode.push(initial_mode(f, v));
    }
    // 2. For every other lane, find the best candidate per slot.
    for lane in 1..lanes {
        let mut candidates: Inline<ValueId> = lane_operands[lane].iter().copied().collect();
        let mut chosen: Inline<Option<ValueId>> = InlineVec::new();
        for (i, m) in mode.iter_mut().enumerate() {
            if *m == OperandMode::Failed {
                chosen.push(None);
                continue;
            }
            let last = final_order[i][lane - 1];
            let (best, new_mode) = get_best(f, addr, *m, last, &mut candidates, cfg);
            *m = new_mode;
            if let Some(b) = best {
                if cfg.splat_mode && b == last && *m != OperandMode::Failed {
                    *m = OperandMode::Splat;
                }
            }
            chosen.push(best);
        }
        // Failed (and newly-failed) slots take the leftovers in order.
        let mut leftovers = candidates.iter().copied();
        for (slot, best) in final_order.iter_mut().zip(chosen.iter()) {
            slot.push(
                best.unwrap_or_else(|| {
                    leftovers.next().expect("operand counts are equal per lane")
                }),
            );
        }
        debug_assert!(leftovers.next().is_none(), "every candidate must be placed");
    }
    final_order
}

/// Transpose `lane_operands[lane][op]` into `final_order[slot][lane]`
/// without any reordering (the `SLP-NR` configuration).
pub fn reorder_none(lane_operands: &[Vec<ValueId>]) -> Vec<Vec<ValueId>> {
    let lanes = lane_operands.len();
    let nops = lane_operands[0].len();
    (0..nops).map(|i| (0..lanes).map(|l| lane_operands[l][i]).collect()).collect()
}

/// Vanilla SLP reordering: for each lane beyond the first, swap the two
/// operands when doing so better matches the *previous lane's* chosen
/// operands by immediate opcode (or load consecutiveness). Ties keep the
/// original order — which is exactly why vanilla SLP cannot decide
/// Listing 2's all-`mul` case or Figure 2's all-`shl` case.
pub fn reorder_vanilla(
    f: &Function,
    addr: &AddrInfo,
    lane_operands: &[Vec<ValueId>],
) -> Vec<Vec<ValueId>> {
    if lane_operands[0].len() != 2 {
        return reorder_none(lane_operands);
    }
    let lanes = lane_operands.len();
    let mut out: Vec<Vec<ValueId>> = (0..2).map(|_| Vec::with_capacity(lanes)).collect();
    out[0].push(lane_operands[0][0]);
    out[1].push(lane_operands[0][1]);
    for lane in 1..lanes {
        let (a, b) = (lane_operands[lane][0], lane_operands[lane][1]);
        let (p0, p1) = (out[0][lane - 1], out[1][lane - 1]);
        let keep = consecutive_or_match(f, addr, p0, a) as i64
            + consecutive_or_match(f, addr, p1, b) as i64;
        let swapped = consecutive_or_match(f, addr, p0, b) as i64
            + consecutive_or_match(f, addr, p1, a) as i64;
        if swapped > keep {
            out[0].push(b);
            out[1].push(a);
        } else {
            out[0].push(a);
            out[1].push(b);
        }
    }
    out
}

/// Dispatch on the configured strategy. Non-commutative callers should not
/// invoke this; the graph builder recurses in operand order for those.
pub fn reorder_operands(
    f: &Function,
    addr: &AddrInfo,
    lane_operands: &[Vec<ValueId>],
    cfg: &VectorizerConfig,
) -> Vec<Vec<ValueId>> {
    match cfg.reorder {
        ReorderStrategy::NoReorder => reorder_none(lane_operands),
        ReorderStrategy::Opcode => reorder_vanilla(f, addr, lane_operands),
        ReorderStrategy::LookAhead => reorder_lookahead(f, addr, lane_operands, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    /// Asserts each lane of the result is a permutation of the input lane.
    fn assert_permutation(lane_operands: &[Vec<ValueId>], result: &[Vec<ValueId>]) {
        for (lane, ops) in lane_operands.iter().enumerate() {
            let mut got: Vec<ValueId> = result.iter().map(|slot| slot[lane]).collect();
            let mut want = ops.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "lane {lane} is not a permutation");
        }
    }

    /// Listing 1: `sub1 + load1` / `load2 + sub2` — vanilla swaps lane 1.
    #[test]
    fn vanilla_fixes_listing1() {
        let mut f = Function::new("l1");
        let a = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let p0 = b.gep(a, i, 8);
        let load1 = b.load(Type::I64, p0);
        let i1 = b.add(i, one);
        let p1 = b.gep(a, i1, 8);
        let load2 = b.load(Type::I64, p1);
        let sub1 = b.sub(x, one);
        let sub2 = b.sub(x, x);
        let addr = AddrInfo::analyze(&f);
        let lanes = vec![vec![sub1, load1], vec![load2, sub2]];
        let out = reorder_vanilla(&f, &addr, &lanes);
        assert_permutation(&lanes, &out);
        assert_eq!(out[0], vec![sub1, sub2]);
        assert_eq!(out[1], vec![load1, load2]);
    }

    /// Listing 2: all operands are `mul` — vanilla keeps the (wrong) order,
    /// look-ahead picks the right pairing.
    #[test]
    fn lookahead_fixes_listing2_where_vanilla_fails() {
        let mut f = Function::new("l2");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let pd = f.add_param("D", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let i1 = b.add(i, one);
        let ld = |b: &mut FunctionBuilder, arr, idx| {
            let p = b.gep(arr, idx, 8);
            b.load(Type::I64, p)
        };
        let a0 = ld(&mut b, pa, i);
        let b0 = ld(&mut b, pb, i);
        let c0 = ld(&mut b, pc, i);
        let d0 = ld(&mut b, pd, i);
        let a1 = ld(&mut b, pa, i1);
        let b1 = ld(&mut b, pb, i1);
        let c1 = ld(&mut b, pc, i1);
        let d1 = ld(&mut b, pd, i1);
        let mul11 = b.mul(a0, b0);
        let mul12 = b.mul(c0, d0);
        let mul21 = b.mul(a1, b1);
        let mul22 = b.mul(c1, d1);
        let addr = AddrInfo::analyze(&f);
        // Lane 0: mul11 + mul12; lane 1 arrives swapped: mul22 + mul21.
        let lanes = vec![vec![mul11, mul12], vec![mul22, mul21]];

        let vanilla = reorder_vanilla(&f, &addr, &lanes);
        assert_permutation(&lanes, &vanilla);
        assert_eq!(vanilla[0], vec![mul11, mul22], "vanilla keeps the bad order");

        let cfg = VectorizerConfig::lslp();
        let la = reorder_lookahead(&f, &addr, &lanes, &cfg);
        assert_permutation(&lanes, &la);
        assert_eq!(la[0], vec![mul11, mul21], "look-ahead pairs A*B with A*B");
        assert_eq!(la[1], vec![mul12, mul22]);
    }

    /// Figure 2: both operands are shifts; look-ahead sees the loads behind
    /// them and swaps lane 1 so the loads line up.
    #[test]
    fn lookahead_fixes_fig2_load_mismatch() {
        let mut f = Function::new("fig2");
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let consts: Vec<ValueId> = (1..=4).map(|k| b.func().const_i64(k)).collect();
        let one = consts[0];
        let i1 = b.add(i, one);
        let ld = |b: &mut FunctionBuilder, arr, idx| {
            let p = b.gep(arr, idx, 8);
            b.load(Type::I64, p)
        };
        let b0 = ld(&mut b, pb, i);
        let c0 = ld(&mut b, pc, i);
        let b1 = ld(&mut b, pb, i1);
        let c1 = ld(&mut b, pc, i1);
        let s_b0 = b.shl(b0, consts[0]);
        let s_c0 = b.shl(c0, consts[1]);
        let s_c1 = b.shl(c1, consts[2]);
        let s_b1 = b.shl(b1, consts[3]);
        let addr = AddrInfo::analyze(&f);
        // Lane 0: B<<1 & C<<2; lane 1: C<<3 & B<<4.
        let lanes = vec![vec![s_b0, s_c0], vec![s_c1, s_b1]];

        let vanilla = reorder_vanilla(&f, &addr, &lanes);
        assert_eq!(vanilla[0], vec![s_b0, s_c1], "vanilla cannot break the tie");

        let cfg = VectorizerConfig::lslp();
        let la = reorder_lookahead(&f, &addr, &lanes, &cfg);
        assert_eq!(la[0], vec![s_b0, s_b1], "look-ahead aligns the B-loads");
        assert_eq!(la[1], vec![s_c0, s_c1], "look-ahead aligns the C-loads");
    }

    #[test]
    fn const_mode_fails_on_missing_constant() {
        // Slot seeded with a constant; next lane offers none.
        let mut f = Function::new("cm");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let c = b.func().const_i64(7);
        let s0 = b.add(x, y);
        let s1 = b.add(y, x);
        let t0 = b.mul(x, y);
        let addr = AddrInfo::analyze(&f);
        let lanes = vec![vec![c, s0], vec![s1, t0]];
        let cfg = VectorizerConfig::lslp();
        let out = reorder_lookahead(&f, &addr, &lanes, &cfg);
        assert_permutation(&lanes, &out);
        // Slot 1 (seeded with add) must take the add; slot 0 fails and takes
        // the leftover mul.
        assert_eq!(out[1], vec![s0, s1]);
        assert_eq!(out[0], vec![c, t0]);
    }

    #[test]
    fn splat_mode_prefers_repeated_value() {
        let mut f = Function::new("sp");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let s = b.add(x, y); // the splat value
        let t1 = b.mul(x, y);
        let t2 = b.mul(y, x);
        let t3 = b.mul(x, x);
        let addr = AddrInfo::analyze(&f);
        // Three lanes; `s` appears in all of them.
        let lanes = vec![vec![s, t1], vec![t2, s], vec![s, t3]];
        let cfg = VectorizerConfig::lslp();
        let out = reorder_lookahead(&f, &addr, &lanes, &cfg);
        assert_permutation(&lanes, &out);
        assert_eq!(out[0], vec![s, s, s], "slot 0 collects the splat");
        assert_eq!(out[1], vec![t1, t2, t3]);
    }

    #[test]
    fn no_reorder_is_identity_transpose() {
        let mut f = Function::new("nr");
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let s0 = b.add(x, y);
        let s1 = b.add(y, x);
        let lanes = vec![vec![x, s0], vec![s1, y]];
        let out = reorder_none(&lanes);
        assert_eq!(out[0], vec![x, s1]);
        assert_eq!(out[1], vec![s0, y]);
    }

    #[test]
    fn lookahead_depth_zero_takes_first_match() {
        // With la_depth == 0 ties are not broken: first matching candidate
        // wins, reproducing LSLP-LA0's near-SLP behaviour.
        let mut f = Function::new("la0");
        let pa = f.add_param("A", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let x = f.add_param("x", Type::I64);
        let y = f.add_param("y", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let i1 = b.add(i, one);
        let p0 = b.gep(pa, i, 8);
        let l0 = b.load(Type::I64, p0);
        let p1 = b.gep(pa, i1, 8);
        let l1 = b.load(Type::I64, p1);
        let m0 = b.mul(l0, x);
        let m1 = b.mul(l1, x);
        let m2 = b.mul(y, y);
        let addr = AddrInfo::analyze(&f);
        let lanes = vec![vec![m0, m2], vec![m2, m1]];
        let cfg = VectorizerConfig { la_depth: 0, ..VectorizerConfig::lslp() };
        let out = reorder_lookahead(&f, &addr, &lanes, &cfg);
        // First match in candidate order for slot 0 lane 1 is m2.
        assert_eq!(out[0][1], m2);
        // With depth > 0 the load-backed mul wins instead.
        let cfg = VectorizerConfig::lslp();
        let out = reorder_lookahead(&f, &addr, &lanes, &cfg);
        assert_eq!(out[0][1], m1);
    }

    #[test]
    fn multinode_width_matrices_are_permuted_correctly() {
        // Four operands per lane (a 3-instruction multi-node frontier).
        let mut f = Function::new("mn");
        let pa = f.add_param("A", Type::PTR);
        let pb = f.add_param("B", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let x = f.add_param("x", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let one = b.func().const_i64(1);
        let i1 = b.add(i, one);
        let ld = |b: &mut FunctionBuilder, arr, idx| {
            let p = b.gep(arr, idx, 8);
            b.load(Type::I64, p)
        };
        let a0 = ld(&mut b, pa, i);
        let a1 = ld(&mut b, pa, i1);
        let b0 = ld(&mut b, pb, i);
        let b1 = ld(&mut b, pb, i1);
        let c = b.func().const_i64(9);
        let addr = AddrInfo::analyze(&f);
        let lanes = vec![vec![a0, b0, c, x], vec![x, c, b1, a1]];
        let cfg = VectorizerConfig::lslp();
        let out = reorder_lookahead(&f, &addr, &lanes, &cfg);
        assert_permutation(&lanes, &out);
        assert_eq!(out[0], vec![a0, a1], "A-loads pair up");
        assert_eq!(out[1], vec![b0, b1], "B-loads pair up");
        assert_eq!(out[2], vec![c, c], "constants pair up");
        assert_eq!(out[3], vec![x, x], "splat arg pairs up");
    }
}

#[cfg(test)]
mod fig8_tests {
    use super::*;
    use crate::config::VectorizerConfig;
    use lslp_ir::{FunctionBuilder, Type};

    /// Reconstructs the multi-node reordering example of Figure 8: four
    /// lanes, operand slots [shl, load, const, shl]; lane 2 offers a load
    /// where a constant is expected (slot 2 transitions to FAILED); the two
    /// shifts per lane are distinguishable only by look-ahead into their
    /// loads (B[i+k] vs C[i+k]).
    #[test]
    fn figure8_multinode_reordering() {
        let mut f = Function::new("fig8");
        let pb = f.add_param("B", Type::PTR);
        let pc = f.add_param("C", Type::PTR);
        let pd = f.add_param("D", Type::PTR);
        let pe = f.add_param("E", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let c1 = b.func().const_i64(1);
        let c2 = b.func().const_i64(2);

        let mut lanes_ops: Vec<Vec<ValueId>> = Vec::new();
        let mut b_shifts = Vec::new();
        let mut c_shifts = Vec::new();
        let mut d_loads = Vec::new();
        let ld = |b: &mut FunctionBuilder, arr, k: i64| {
            let off = b.func().const_i64(k);
            let idx = b.add(i, off);
            let p = b.gep(arr, idx, 8);
            b.load(Type::I64, p)
        };
        for k in 0..4i64 {
            let lb = ld(&mut b, pb, k);
            let sb = b.shl(lb, c1);
            let lc = ld(&mut b, pc, k);
            let sc = b.shl(lc, c2);
            let ldk = ld(&mut b, pd, k);
            // Lane 2's "constant" slot holds a load of E[0] instead
            // (Figure 8's yellow load that flips slot 2 to FAILED).
            let third = if k == 2 { ld(&mut b, pe, 0) } else { c1 };
            b_shifts.push(sb);
            c_shifts.push(sc);
            d_loads.push(ldk);
            // Present the operands in a per-lane shuffled order so the
            // reordering has real work to do.
            let ops = match k {
                0 => vec![sb, ldk, third, sc],
                1 => vec![ldk, sc, sb, third],
                2 => vec![third, sb, sc, ldk],
                _ => vec![sc, third, ldk, sb],
            };
            lanes_ops.push(ops);
        }

        let addr = AddrInfo::analyze(&f);
        let cfg = VectorizerConfig::lslp();
        let out = reorder_lookahead(&f, &addr, &lanes_ops, &cfg);

        // Slot 0 collects the B-shifts across all four lanes (look-ahead
        // sees the consecutive B-loads), slot 3 the C-shifts.
        assert_eq!(out[0], b_shifts, "slot 0 must gather the B-side shifts");
        assert_eq!(out[3], c_shifts, "slot 3 must gather the C-side shifts");
        // Slot 1 collects the consecutive D-loads.
        assert_eq!(out[1], d_loads, "slot 1 must gather the D loads");
        // Slot 2 starts in CONST mode, fails at lane 2 (a load appears),
        // and takes the leftovers from then on: [1, 1, E-load, 1].
        assert_eq!(out[2][0], c1);
        assert_eq!(out[2][1], c1);
        assert!(f.opcode(out[2][2]) == Some(Opcode::Load), "lane 2 leftover is the E load");
        assert_eq!(out[2][3], c1);
    }
}
