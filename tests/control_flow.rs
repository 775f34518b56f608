//! End-to-end tests for the control-flow front of the pipeline: SLC
//! `loop` / `if` → CFG IR → if-conversion + unroll-and-SLP → the
//! straight-line vectorizer — plus guard-rollback coverage for the new
//! cross-block mutations.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lslp::guard::{self, GuardMode, GuardPolicy, IncidentKind};
use lslp::{run_pipeline, AnalysisManager, VectorizerConfig};
use lslp_interp::{run_function, Memory};
use lslp_ir::{parse_function, print_function, verify_function, Function, Terminator};
use lslp_kernels::{loop_kernels, ElemKind, Kernel};
use lslp_target::TargetSpec;

const TARGETS: [&str; 4] = ["sse4.2", "neon128", "skylake-avx2", "avx512"];

// ---------------------------------------------------------------------------
// Golden IR: if-conversion and unroll, printed before/after.
// ---------------------------------------------------------------------------

#[test]
fn if_conversion_golden() {
    let mut f = parse_function(
        "func @clamp(%A: ptr, %i: i64) {
           bb0:
             %0 = gep %A, %i, 8
             %v = load f64, %0
             %1 = fcmp olt f64 %v, 0.0
             br %1, bb1, bb2
           bb1:
             jump bb3(0.0)
           bb2:
             jump bb3(%v)
           bb3(%c: f64):
             store f64 %c, %0
             ret
         }",
    )
    .unwrap();
    verify_function(&f).unwrap();
    assert!(print_function(&f).contains("br %1, bb1, bb2"));

    let converted = lslp::ifconv::run(&mut f);
    verify_function(&f).unwrap();
    assert_eq!(converted, 1);
    let after = print_function(&f);
    // The diamond is gone: one select, no blocks, straight-line body.
    assert!(f.cfg().is_none(), "{after}");
    assert!(after.contains("select f64 %1, 0.0, %v"), "{after}");
    assert!(!after.contains("br "), "{after}");
    assert!(!after.contains("bb0"), "{after}");
}

#[test]
fn unroll_golden() {
    let mut f = parse_function(
        "func @sum(%A: ptr) {
           bb0:
             loop 3, bb1(0), bb2
           bb1(%i: i64, %acc: i64):
             %0 = gep %A, %i, 8
             %1 = load i64, %0
             %2 = add i64 %acc, %1
             continue %2
           bb2(%total: i64):
             store i64 %total, %A
             ret
         }",
    )
    .unwrap();
    verify_function(&f).unwrap();

    let unrolled = lslp::unroll::run(&mut f);
    verify_function(&f).unwrap();
    assert_eq!(unrolled, 1);
    let after = print_function(&f);
    assert!(f.cfg().is_none(), "{after}");
    // Three copies of the body, induction variable folded to 0/1/2.
    assert_eq!(after.matches("load i64").count(), 3, "{after}");
    assert_eq!(after.matches("add i64").count(), 3, "{after}");
    assert!(after.contains("gep %A, 0, 8"), "{after}");
    assert!(after.contains("gep %A, 1, 8"), "{after}");
    assert!(after.contains("gep %A, 2, 8"), "{after}");
    assert!(!after.contains("loop"), "{after}");
    assert!(!after.contains("continue"), "{after}");
}

#[test]
fn unroll_respects_the_budget() {
    // 200 insts/iteration × 2 trips fits; the same body at 300 does not.
    fn looped(n: usize) -> Function {
        let mut body = String::new();
        for k in 0..n {
            body.push_str(&format!("%x{k} = add i64 %i, {k}\n"));
        }
        parse_function(&format!(
            "func @big(%A: ptr) {{
               bb0:
                 loop 2, bb1, bb2
               bb1(%i: i64):
                 {body}
                 continue
               bb2:
                 ret
             }}"
        ))
        .unwrap()
    }
    let mut small = looped(100);
    assert_eq!(lslp::unroll::run(&mut small), 1);
    let mut big = looped(300);
    assert_eq!(lslp::unroll::run(&mut big), 0, "over-budget loops stay rolled");
    assert!(big.cfg().is_some());
}

// ---------------------------------------------------------------------------
// Differential: every loop kernel, scalar CFG vs full pipeline, 4 targets.
// ---------------------------------------------------------------------------

fn assert_same_memory(k: &Kernel, a: &Memory, b: &Memory, label: &str) {
    for name in a.buffer_names() {
        let ba = a.bytes(name).unwrap();
        let bb = b.bytes(name).unwrap();
        if ba == bb {
            continue;
        }
        match k.elem {
            ElemKind::I64 => panic!("{} under {label}: integer buffer {name} differs", k.name),
            ElemKind::F64 => {
                for (idx, (ca, cb)) in ba.chunks(8).zip(bb.chunks(8)).enumerate() {
                    let x = f64::from_le_bytes(ca.try_into().unwrap());
                    let y = f64::from_le_bytes(cb.try_into().unwrap());
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() <= tol,
                        "{} under {label}: {name}[{idx}] = {x} vs {y}",
                        k.name
                    );
                }
            }
        }
    }
}

/// Run `iters` invocations of `f` against fresh memory; returns it.
fn run_iters(k: &Kernel, f: &Function, iters: usize) -> Memory {
    let mut mem = k.setup_memory(f, iters);
    for t in 0..iters {
        let args = k.args(f, &mem, t as i64 * k.i_step);
        run_function(f, &args, &mut mem)
            .unwrap_or_else(|e| panic!("{} execution failed: {e}", k.name));
    }
    mem
}

#[test]
fn loop_kernels_match_scalar_on_all_targets() {
    let iters = 8;
    for k in loop_kernels() {
        // Scalar reference: the un-lowered CFG function, interpreted
        // directly (loop regions and branches execute as written).
        let scalar_f = k.compile();
        assert!(scalar_f.cfg().is_some(), "{} should carry a CFG", k.name);
        let scalar_mem = run_iters(&k, &scalar_f, iters);

        for target in TARGETS {
            let tm = TargetSpec::parse(target).unwrap();
            let mut f = k.compile();
            let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &tm);
            verify_function(&f).unwrap_or_else(|e| panic!("{} on {target}: {e}", k.name));
            assert!(f.cfg().is_none(), "{} on {target}: pipeline flattens the CFG", k.name);
            assert!(report.unrolled >= 1, "{} on {target}: loop must unroll", k.name);
            let mem = run_iters(&k, &f, iters);
            assert_same_memory(&k, &scalar_mem, &mem, target);
        }
    }
}

/// Committed VFs for `name` under LSLP on `target`, plus the report.
fn committed_vfs(name: &str, target: &str) -> (Vec<usize>, lslp::PipelineReport) {
    let k = loop_kernels().into_iter().find(|k| k.name == name).unwrap();
    let tm = TargetSpec::parse(target).unwrap();
    let mut f = k.compile();
    let report = run_pipeline(&mut f, &VectorizerConfig::lslp(), &tm);
    let vfs = report.vectorize.attempts.iter().filter(|a| a.vectorized).map(|a| a.vf).collect();
    (vfs, report)
}

#[test]
fn loop_and_branchy_kernels_vectorize_on_all_targets() {
    // The acceptance bar: a loop kernel and a branchy kernel commit a
    // vector factor > 1. `smin_loop` (integer, branchy body) does so on
    // every registry target.
    for target in TARGETS {
        let (vfs, report) = committed_vfs("smin_loop", target);
        assert!(
            vfs.iter().any(|&vf| vf > 1),
            "smin_loop on {target}: expected committed VF > 1, got {vfs:?}"
        );
        assert!(report.if_converted >= 1, "smin_loop on {target}: diamond must convert");
        assert!(report.unrolled >= 1, "smin_loop on {target}: loop must unroll");
    }
    // The f64 kernels commit on the full-rate-f64 targets (neon128's
    // half-rate f64 SIMD breaks even there, matching hreciprocal/mesh1 in
    // the golden target-cost tables).
    for target in ["sse4.2", "skylake-avx2", "avx512"] {
        for name in ["saxpy_loop", "clamp_loop"] {
            let (vfs, report) = committed_vfs(name, target);
            assert!(
                vfs.iter().any(|&vf| vf > 1),
                "{name} on {target}: expected committed VF > 1, got {vfs:?}"
            );
            if name == "clamp_loop" {
                assert!(report.if_converted >= 1, "{name} on {target}: diamond must convert");
            }
        }
    }
}

#[test]
fn branchy_kernel_codegen_uses_vector_selects() {
    let k = loop_kernels().into_iter().find(|k| k.name == "smin_loop").unwrap();
    let tm = TargetSpec::parse("skylake-avx2").unwrap();
    let mut f = k.compile();
    run_pipeline(&mut f, &VectorizerConfig::lslp(), &tm);
    let text = print_function(&f);
    assert!(text.contains("icmp slt <4 x i64>"), "{text}");
    assert!(text.contains("select <4 x i64>"), "{text}");
}

#[test]
fn straight_line_kernels_are_byte_identical_through_the_new_pipeline() {
    // The CFG front must be a strict no-op for straight-line inputs.
    let tm = TargetSpec::parse("skylake-avx2").unwrap();
    for k in lslp_kernels::suite() {
        let mut with_front = k.compile();
        let report = run_pipeline(&mut with_front, &VectorizerConfig::lslp(), &tm);
        assert_eq!(report.if_converted, 0, "{}", k.name);
        assert_eq!(report.unrolled, 0, "{}", k.name);
    }
}

// ---------------------------------------------------------------------------
// Guard rollback across blocks.
// ---------------------------------------------------------------------------

/// A diamond CFG function for rollback tests.
fn diamond() -> Function {
    parse_function(
        "func @d(%A: ptr, %i: i64) {
           bb0:
             %0 = gep %A, %i, 8
             %v = load f64, %0
             %1 = fcmp olt f64 %v, 1.0
             br %1, bb1, bb2
           bb1:
             jump bb3(0.5)
           bb2:
             jump bb3(%v)
           bb3(%c: f64):
             store f64 %c, %0
             ret
         }",
    )
    .unwrap()
}

#[test]
fn panic_mid_if_conversion_rolls_back_across_blocks() {
    let mut f = diamond();
    verify_function(&f).unwrap();
    let before = print_function(&f);
    let epoch_before = f.epoch();
    let mut incidents = Vec::new();

    // A "pass" that replays the first half of if-conversion by hand —
    // cross-block mutations touching instructions, params, and terminators
    // — then dies before finishing the transform.
    let r = guard::run_guarded(
        &mut f,
        &mut AnalysisManager::new(),
        GuardPolicy::new(GuardMode::Rollback),
        "mock-ifconv-crash",
        None,
        &mut incidents,
        |f: &mut Function, _: &mut AnalysisManager| -> ((), bool) {
            let cfg = f.cfg().expect("diamond");
            let entry = cfg.entry();
            let b3 = cfg.block_ids().nth(3).unwrap();
            // Hoist: drop the join's params, retarget the branch block,
            // leave dangling edge args behind — then crash mid-way.
            f.set_block_params(b3, vec![]);
            f.set_term(entry, Terminator::Jump { target: b3, args: vec![] });
            panic!("injected crash half-way through if-conversion");
        },
    );
    assert_eq!(r.unwrap(), None, "the transaction must not commit");
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].kind, IncidentKind::Panic);
    assert_eq!(print_function(&f), before, "byte-identical restoration across blocks");
    assert_eq!(f.epoch(), epoch_before, "epoch restored");
    verify_function(&f).expect("restored function verifies");

    // And the restored function still if-converts cleanly afterwards.
    assert_eq!(lslp::ifconv::run(&mut f), 1);
    verify_function(&f).unwrap();
}

#[test]
fn sabotaged_if_conversion_is_caught_by_the_paranoid_oracle() {
    // SwapIfArms flips the select operands — valid IR, wrong semantics.
    // Only differential execution can notice; the paranoid guard must
    // refuse to commit the miscompiled transform.
    let mut f = diamond();
    let before = print_function(&f);
    let mut incidents = Vec::new();
    let policy = GuardPolicy::new(GuardMode::Rollback).paranoid(true);
    let r = guard::run_guarded(
        &mut f,
        &mut AnalysisManager::new(),
        policy,
        "if-convert",
        None,
        &mut incidents,
        |f: &mut Function, _: &mut AnalysisManager| -> (usize, bool) {
            let n = lslp::ifconv::run_with(f, true);
            (n, n > 0)
        },
    );
    assert_eq!(r.unwrap(), None, "the miscompile must not commit");
    assert_eq!(incidents.len(), 1);
    assert_eq!(incidents[0].kind, IncidentKind::OracleMismatch);
    assert_eq!(print_function(&f), before, "rolled back to the diamond");
}

#[test]
fn unguarded_panic_in_cfg_mutation_propagates() {
    // Sanity: without the guard, the same crash escapes (the historical
    // behavior the guard exists to prevent).
    let mut f = diamond();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let entry = f.cfg().unwrap().entry();
        f.set_term(entry, Terminator::Ret);
        panic!("unguarded crash");
    }));
    assert!(result.is_err());
}
