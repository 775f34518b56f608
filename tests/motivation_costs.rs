//! The paper's worked examples (§3, Figures 2–4) reproduce their exact
//! static costs.
//!
//! | Example              | SLP (paper)      | LSLP (paper) |
//! |----------------------|------------------|--------------|
//! | Fig 2 (loads)        | 0, not vectorized| −6           |
//! | Fig 3 (opcodes)      | +4, not vect.(*) | −2           |
//! | Fig 4 (multi-node)   | −2               | −10          |
//!
//! (*) Our vanilla-SLP cost for Figure 3 is 0 rather than +4: the paper's
//! LLVM baseline pairs the `&`-operands across lanes in a way that turns
//! both constant groups into mixed gathers (+2 each); our re-implementation
//! keeps the constants grouped (cost 0). The *decision* — SLP does not
//! vectorize, LSLP vectorizes at −2 — is identical. Recorded in
//! EXPERIMENTS.md.

use lslp::{vectorize_function, VectorizerConfig};
use lslp_kernels::motivation_kernels;
use lslp_target::CostModel;

/// Run a named motivation kernel under `cfg`; returns
/// `(first-attempt cost, applied cost, trees vectorized)`.
fn run(kernel: &str, cfg: &VectorizerConfig) -> (i64, i64, usize) {
    let k = motivation_kernels().into_iter().find(|k| k.name == kernel).expect("kernel exists");
    let mut f = k.compile();
    let report = vectorize_function(&mut f, cfg, &CostModel::skylake_avx2());
    lslp_ir::verify_function(&f).expect("output verifies");
    let first = report.attempts.first().map(|a| a.cost).unwrap_or(0);
    (first, report.applied_cost, report.trees_vectorized)
}

#[test]
fn fig2_slp_cost_zero_not_vectorized() {
    let (first, applied, trees) = run("motivation_loads", &VectorizerConfig::slp());
    assert_eq!(first, 0, "paper Fig 2(c): total cost 0");
    assert_eq!(trees, 0, "cost 0 is not profitable");
    assert_eq!(applied, 0);
}

#[test]
fn fig2_lslp_cost_minus_six() {
    let (_, applied, trees) = run("motivation_loads", &VectorizerConfig::lslp());
    assert_eq!(trees, 1);
    assert_eq!(applied, -6, "paper Fig 2(d): total cost −6");
}

#[test]
fn fig3_slp_not_vectorized() {
    let (first, _, trees) = run("motivation_opcodes", &VectorizerConfig::slp());
    assert_eq!(trees, 0, "paper Fig 3(c): SLP does not vectorize");
    assert!(first >= 0, "cost must be unprofitable, got {first}");
}

#[test]
fn fig3_lslp_cost_minus_two() {
    let (_, applied, trees) = run("motivation_opcodes", &VectorizerConfig::lslp());
    assert_eq!(trees, 1);
    assert_eq!(applied, -2, "paper Fig 3(d): total cost −2");
}

#[test]
fn fig4_slp_cost_minus_two_partial() {
    let (_, applied, trees) = run("motivation_multi", &VectorizerConfig::slp());
    assert_eq!(trees, 1, "paper Fig 4(c): SLP vectorizes partially");
    assert_eq!(applied, -2, "paper Fig 4(c): total cost −2");
}

#[test]
fn fig4_lslp_cost_minus_ten() {
    let (_, applied, trees) = run("motivation_multi", &VectorizerConfig::lslp());
    assert_eq!(trees, 1);
    assert_eq!(applied, -10, "paper Fig 4(d): total cost −10");
}

#[test]
fn slp_nr_never_beats_slp_on_motivation() {
    for k in ["motivation_loads", "motivation_opcodes", "motivation_multi"] {
        let (_, nr, _) = run(k, &VectorizerConfig::slp_nr());
        let (_, slp, _) = run(k, &VectorizerConfig::slp());
        assert!(nr >= slp, "{k}: SLP-NR {nr} vs SLP {slp}");
    }
}

#[test]
fn lslp_strictly_improves_all_motivation_examples() {
    for k in ["motivation_loads", "motivation_opcodes", "motivation_multi"] {
        let (_, slp, _) = run(k, &VectorizerConfig::slp());
        let (_, lslp, _) = run(k, &VectorizerConfig::lslp());
        assert!(lslp < slp, "{k}: LSLP {lslp} must beat SLP {slp}");
    }
}

/// Figure 4 specifically requires multi-node support: restricting the
/// multi-node size to 1 (LSLP-Multi1) must lose part of the benefit.
#[test]
fn fig4_needs_multinodes() {
    let (_, multi1, _) = run("motivation_multi", &VectorizerConfig::lslp_multi(1));
    let (_, full, _) = run("motivation_multi", &VectorizerConfig::lslp());
    assert!(full < multi1, "full LSLP {full} must beat Multi1 {multi1}");
}

/// Figure 2 specifically requires look-ahead: depth 0 cannot break the
/// all-`shl` tie.
#[test]
fn fig2_needs_lookahead() {
    let (_, la0, trees0) = run("motivation_loads", &VectorizerConfig::lslp_la(0));
    let (_, la1, trees1) = run("motivation_loads", &VectorizerConfig::lslp_la(1));
    assert_eq!(trees1, 1);
    assert_eq!(la1, -6, "depth 1 already sees the loads");
    assert!(la0 > la1, "LA0 ({la0} / {trees0} trees) must lose to LA1 ({la1})");
}
