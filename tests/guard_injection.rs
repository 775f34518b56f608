//! Fault injection against the transactional pass guard.
//!
//! Mock passes are driven through the same `guard::run_guarded` entry the
//! real pipeline uses, with three injected failure modes: a pass that
//! *corrupts* the IR (fails verification), a pass that *panics* mid-way,
//! and a pass that *miscompiles* (valid IR, wrong semantics — only the
//! paranoid differential oracle can catch it). Each mode is checked under
//! all three guard settings: `rollback` must restore the pre-pass function
//! bit-for-bit and record exactly one incident while the process stays
//! alive, `strict` must return an error, and `off` must reproduce the
//! historical unguarded behavior (corruption persists, panics propagate).
//!
//! A second battery feeds *malformed input* (a store whose stored value is
//! void — non-vectorizable) straight into the vectorizer entry points.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lslp::guard::{self, GuardMode, GuardPolicy, IncidentKind, RollbackStrategy};
use lslp::{try_vectorize_function, VectorizerConfig};
use lslp_ir::{Function, FunctionBuilder, Opcode, Type, ValueId};
use lslp_target::CostModel;

/// A small valid kernel: `A[i] = x; A[i+1] = x`.
fn kernel() -> Function {
    let mut f = Function::new("victim");
    let pa = f.add_param("A", Type::PTR);
    let x = f.add_param("x", Type::I64);
    let i = f.add_param("i", Type::I64);
    for o in 0..2 {
        let mut b = FunctionBuilder::new(&mut f);
        let c = b.func().const_i64(o);
        let idx = b.add(i, c);
        let g = b.gep(pa, idx, 8);
        b.store(x, g);
    }
    f
}

/// The id of the first store instruction in `f`.
fn first_store(f: &Function) -> ValueId {
    f.iter_body().find(|(_, _, inst)| inst.op == Opcode::Store).map(|(_, id, _)| id).unwrap()
}

/// Mock pass: dangle an operand (out-of-range handle) — detectable by the
/// verifier.
fn corrupting_pass(f: &mut Function) -> ((), bool) {
    let s = first_store(f);
    f.inst_mut(s).unwrap().args[0] = ValueId::from_raw(9999);
    ((), true)
}

/// Mock pass: silently redirect a store to a different value — the IR
/// stays valid, only differential execution notices.
fn miscompiling_pass(f: &mut Function) -> ((), bool) {
    let s = first_store(f);
    let wrong = f.const_i64(123_456);
    f.inst_mut(s).unwrap().args[0] = wrong;
    ((), true)
}

#[test]
fn corrupting_pass_rolls_back_bit_for_bit() {
    let mut f = kernel();
    let before = lslp_ir::print_function(&f);
    let mut incidents = Vec::new();
    let r = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Rollback),
        "mock-corrupt",
        None,
        &mut incidents,
        corrupting_pass,
    );
    assert_eq!(r.unwrap(), None, "the transaction must not commit");
    assert_eq!(lslp_ir::print_function(&f), before, "bit-for-bit restore");
    assert_eq!(incidents.len(), 1, "exactly one incident");
    assert_eq!(incidents[0].kind, IncidentKind::VerifyError);
    assert!(
        incidents[0].detail.contains("out of range"),
        "incident names the verifier failure: {}",
        incidents[0].detail
    );
    lslp_ir::verify_function(&f).expect("restored function verifies");
}

#[test]
fn corrupting_pass_under_strict_returns_error() {
    let mut f = kernel();
    let before = lslp_ir::print_function(&f);
    let mut incidents = Vec::new();
    let err = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Strict),
        "mock-corrupt",
        None,
        &mut incidents,
        corrupting_pass,
    )
    .unwrap_err();
    assert_eq!(err.0.kind, IncidentKind::VerifyError);
    assert_eq!(lslp_ir::print_function(&f), before, "strict also restores");
    assert!(incidents.is_empty(), "strict reports via Err, not the list");
}

#[test]
fn corrupting_pass_under_off_persists_corruption() {
    // The historical behavior: no snapshot, no verification — the broken
    // function survives the "pass". This is exactly what the guard exists
    // to prevent.
    let mut f = kernel();
    let mut incidents = Vec::new();
    let r = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Off),
        "mock-corrupt",
        None,
        &mut incidents,
        corrupting_pass,
    );
    assert!(r.unwrap().is_some(), "off mode commits blindly");
    assert!(incidents.is_empty());
    assert!(lslp_ir::verify_function(&f).is_err(), "corruption persisted");
}

#[test]
fn panicking_pass_is_isolated_per_mode() {
    let panicking = |f: &mut Function| -> ((), bool) {
        f.add_param("junk", Type::I64); // partial mutation before the crash
        panic!("injected crash");
    };

    // Rollback: process alive, one incident, function restored.
    let mut f = kernel();
    let before = lslp_ir::print_function(&f);
    let mut incidents = Vec::new();
    let r = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Rollback),
        "mock-panic",
        None,
        &mut incidents,
        panicking,
    );
    assert_eq!(r.unwrap(), None);
    assert_eq!(lslp_ir::print_function(&f), before);
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].kind, IncidentKind::Panic);
    assert_eq!(incidents[0].detail, "injected crash");

    // Strict: an error, not a live panic.
    let mut f = kernel();
    let err = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Strict),
        "mock-panic",
        None,
        &mut Vec::new(),
        panicking,
    )
    .unwrap_err();
    assert_eq!(err.0.kind, IncidentKind::Panic);

    // Off: the panic propagates to the caller, as before the guard existed.
    let mut f = kernel();
    let mut incidents = Vec::new();
    let propagated = catch_unwind(AssertUnwindSafe(|| {
        let _ = guard::run_guarded(
            &mut f,
            GuardPolicy::new(GuardMode::Off),
            "mock-panic",
            None,
            &mut incidents,
            panicking,
        );
    }));
    assert!(propagated.is_err(), "off mode must not swallow panics");
}

#[test]
fn miscompiling_pass_caught_only_by_paranoid_oracle() {
    // Without the oracle the wrong-but-valid transform commits…
    let mut f = kernel();
    let mut incidents = Vec::new();
    let r = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Rollback),
        "mock-miscompile",
        None,
        &mut incidents,
        miscompiling_pass,
    );
    assert!(r.unwrap().is_some(), "verification alone cannot see it");
    assert!(incidents.is_empty());
    assert!(lslp_ir::print_function(&f).contains("123456"), "miscompile committed");

    // …with the oracle it is rolled back as an OracleMismatch.
    let mut f = kernel();
    let before = lslp_ir::print_function(&f);
    let r = guard::run_guarded(
        &mut f,
        GuardPolicy::new(GuardMode::Rollback).paranoid(true),
        "mock-miscompile",
        None,
        &mut incidents,
        miscompiling_pass,
    );
    assert_eq!(r.unwrap(), None);
    assert_eq!(lslp_ir::print_function(&f), before);
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].kind, IncidentKind::OracleMismatch);
}

#[test]
fn differential_strategy_is_clean_across_all_targets() {
    // The differential strategy runs every rollback twice — delta log and
    // snapshot — and panics if they ever disagree. Sweeping the kernel
    // suite across the whole target registry is the strongest "delta
    // rollback ≡ snapshot rollback" statement the real pass pipeline can
    // make.
    for target in ["sse4.2", "skylake-avx2", "avx512", "neon128"] {
        let tm = CostModel::parse(target).expect("registry names parse");
        for k in lslp_kernels::suite() {
            let mut f = k.compile();
            let cfg = VectorizerConfig {
                rollback: RollbackStrategy::Differential,
                ..VectorizerConfig::lslp()
            };
            let report = try_vectorize_function(&mut f, &cfg, &tm)
                .unwrap_or_else(|e| panic!("{} on {target}: {e}", k.name));
            assert!(report.incidents.is_empty(), "{} on {target}: clean suite", k.name);
            lslp_ir::verify_function(&f).unwrap_or_else(|e| panic!("{} on {target}: {e}", k.name));
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed input: stores whose stored value has no element type
// ---------------------------------------------------------------------------

/// `A[i] = x; A[i+1] = (void)` — the second store's "value" is the first
/// store itself. Invalid IR (the verifier rejects stores of void), and the
/// regression the `UnsupportedSeed` skip defends against: the seed loop
/// must never assume a stored value has an element type.
fn void_store_kernel() -> Function {
    let mut f = Function::new("voidstore");
    let pa = f.add_param("A", Type::PTR);
    let x = f.add_param("x", Type::I64);
    let i = f.add_param("i", Type::I64);
    let one = f.const_i64(1);
    let g0 = f.push(Opcode::Gep, Type::PTR, vec![pa, i], lslp_ir::InstAttr::ElemBytes(8));
    let s0 = f.push(Opcode::Store, Type::Void, vec![x, g0], lslp_ir::InstAttr::None);
    let i1 = f.push(Opcode::Add, Type::I64, vec![i, one], lslp_ir::InstAttr::None);
    let g1 = f.push(Opcode::Gep, Type::PTR, vec![pa, i1], lslp_ir::InstAttr::ElemBytes(8));
    let _s1 = f.push(Opcode::Store, Type::Void, vec![s0, g1], lslp_ir::InstAttr::None);
    f
}

#[test]
fn void_valued_stores_never_panic_the_vectorizer() {
    let tm = CostModel::skylake_avx2();
    for mode in [GuardMode::Rollback, GuardMode::Strict] {
        let mut f = void_store_kernel();
        let before = lslp_ir::print_function(&f);
        let cfg = VectorizerConfig { guard: mode, ..VectorizerConfig::lslp() };
        let r = catch_unwind(AssertUnwindSafe(|| try_vectorize_function(&mut f, &cfg, &tm)));
        let outcome = r.unwrap_or_else(|_| panic!("vectorizer panicked on void store ({mode})"));
        match mode {
            // The input never verified, so the final checkpoint reports it:
            // strict surfaces an error, rollback records and keeps going.
            GuardMode::Strict => {
                outcome.expect_err("strict must surface the invalid input");
            }
            _ => {
                let report = outcome.expect("rollback mode returns a report");
                assert_eq!(report.trees_vectorized, 0);
                assert!(!report.incidents.is_empty(), "the incident must be recorded");
            }
        }
        assert_eq!(lslp_ir::print_function(&f), before, "input left untouched ({mode})");
    }
}
