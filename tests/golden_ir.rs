//! Golden-IR regression: the exact vectorized code LSLP emits for the
//! paper's three motivating examples. Pinning the full output catches any
//! unintended drift in seed collection, reordering decisions, multi-node
//! formation, codegen placement, naming, or DCE.
//!
//! Structural cross-check against the paper:
//! * Fig 2(d): one `<2 x i64>` load per array (B, C) — the look-ahead
//!   paired the lanes so both loads vectorize;
//! * Fig 3(d): the `+`/`<<` groups vectorize while the four leaf loads stay
//!   scalar gathers (insertelement chains);
//! * Fig 4(d): fully vectorized, including the `A[i:i+1]` loads and the
//!   multi-node's two chained vector `and`s.

use lslp::{vectorize_function, VectorizerConfig};
use lslp_target::CostModel;

fn vectorized(kernel: &str) -> String {
    let k = lslp_kernels::motivation_kernels()
        .into_iter()
        .find(|k| k.name == kernel)
        .expect("kernel exists");
    let mut f = k.compile();
    vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::skylake_avx2());
    lslp_ir::print_function(&f)
}

#[test]
fn golden_fig2_motivation_loads() {
    let expected = "\
func @motivation_loads(%A: ptr, %B: ptr, %C: ptr, %i: i64) {
  %0 = add i64 %i, 0
  %1 = gep %B, %0, 8
  %2 = add i64 %i, 0
  %3 = gep %C, %2, 8
  %4 = add i64 %i, 0
  %5 = gep %A, %4, 8
  %6 = load <2 x i64>, %3
  %7 = shl <2 x i64> %6, <2, 3>
  %8 = load <2 x i64>, %1
  %9 = shl <2 x i64> %8, <1, 4>
  %10 = and <2 x i64> %9, %7
  store <2 x i64> %10, %5
}
";
    assert_eq!(vectorized("motivation_loads"), expected);
}

#[test]
fn golden_fig3_motivation_opcodes() {
    let expected = "\
func @motivation_opcodes(%A: ptr, %B: ptr, %C: ptr, %D: ptr, %E: ptr, %i: i64) {
  %0 = mul i64 2, %i
  %1 = gep %B, %0, 8
  %2 = load i64, %1
  %3 = mul i64 2, %i
  %4 = gep %C, %3, 8
  %5 = load i64, %4
  %6 = add i64 %i, 0
  %7 = gep %A, %6, 8
  %8 = mul i64 2, %i
  %9 = gep %D, %8, 8
  %10 = load i64, %9
  %11 = insertelement <2 x i64> <0, 0>, %5, 0
  %12 = insertelement <2 x i64> %11, %10, 1
  %13 = add <2 x i64> %12, <2, 3>
  %14 = and <2 x i64> %13, <18, 19>
  %15 = mul i64 2, %i
  %16 = gep %E, %15, 8
  %17 = load i64, %16
  %18 = insertelement <2 x i64> <0, 0>, %2, 0
  %19 = insertelement <2 x i64> %18, %17, 1
  %20 = shl <2 x i64> %19, <1, 4>
  %21 = and <2 x i64> %20, <17, 20>
  %22 = add <2 x i64> %21, %14
  store <2 x i64> %22, %7
}
";
    assert_eq!(vectorized("motivation_opcodes"), expected);
}

#[test]
fn golden_fig4_motivation_multi() {
    let expected = "\
func @motivation_multi(%A: ptr, %B: ptr, %C: ptr, %D: ptr, %E: ptr, %i: i64) {
  %0 = add i64 %i, 0
  %1 = gep %A, %0, 8
  %2 = load <2 x i64>, %1
  %3 = add i64 %i, 0
  %4 = gep %B, %3, 8
  %5 = add i64 %i, 0
  %6 = gep %C, %5, 8
  %7 = add i64 %i, 0
  %8 = gep %D, %7, 8
  %9 = add i64 %i, 0
  %10 = gep %E, %9, 8
  %11 = add i64 %i, 0
  %12 = gep %A, %11, 8
  %13 = load <2 x i64>, %8
  %14 = load <2 x i64>, %10
  %15 = add <2 x i64> %13, %14
  %16 = load <2 x i64>, %4
  %17 = load <2 x i64>, %6
  %18 = add <2 x i64> %16, %17
  %19 = and <2 x i64> %15, %2
  %20 = and <2 x i64> %19, %18
  store <2 x i64> %20, %12
}
";
    assert_eq!(vectorized("motivation_multi"), expected);
}

/// Vectorization is deterministic: two independent runs over freshly
/// compiled kernels produce byte-identical IR.
#[test]
fn vectorization_is_deterministic() {
    for k in lslp_kernels::suite() {
        let once = {
            let mut f = k.compile();
            vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::skylake_avx2());
            lslp_ir::print_function(&f)
        };
        let twice = {
            let mut f = k.compile();
            vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::skylake_avx2());
            lslp_ir::print_function(&f)
        };
        assert_eq!(once, twice, "{} must vectorize deterministically", k.name);
    }
}
