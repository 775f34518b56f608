//! End-to-end regression over the Table 2 kernel suite: every configuration
//! produces verified code, vectorized kernels compute the same results as
//! the scalar originals, and the static-cost / speedup ordering of the
//! paper (LSLP ≥ SLP ≥ SLP-NR, all ≥ O3) holds.

use lslp::{vectorize_function, VectorizerConfig};
use lslp_kernels::{suite, ElemKind, Kernel};
use lslp_target::CostModel;

struct Outcome {
    cost: i64,
    cycles: i64,
    mem: lslp_interp::Memory,
}

fn run_config(k: &Kernel, cfg: &VectorizerConfig, iters: usize) -> Outcome {
    let tm = CostModel::skylake_avx2();
    let mut f = k.compile();
    let report = vectorize_function(&mut f, cfg, &tm);
    lslp_ir::verify_function(&f).unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let mut mem = k.setup_memory(&f, iters);
    let cycles = k
        .run(&f, &mut mem, iters, &tm)
        .unwrap_or_else(|e| panic!("{} execution failed: {e}", k.name));
    Outcome { cost: report.applied_cost, cycles, mem }
}

fn assert_same_memory(k: &Kernel, a: &lslp_interp::Memory, b: &lslp_interp::Memory, cfg: &str) {
    for name in a.buffer_names() {
        let ba = a.bytes(name).unwrap();
        let bb = b.bytes(name).unwrap();
        if ba == bb {
            continue;
        }
        match k.elem {
            ElemKind::I64 => panic!("{} under {cfg}: integer buffer {name} differs", k.name),
            ElemKind::F64 => {
                for (idx, (ca, cb)) in ba.chunks(8).zip(bb.chunks(8)).enumerate() {
                    let x = f64::from_le_bytes(ca.try_into().unwrap());
                    let y = f64::from_le_bytes(cb.try_into().unwrap());
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!(
                        (x - y).abs() <= tol,
                        "{} under {cfg}: {name}[{idx}] = {x} vs {y}",
                        k.name
                    );
                }
            }
        }
    }
}

const CONFIGS: [&str; 3] = ["SLP-NR", "SLP", "LSLP"];

#[test]
fn vectorized_kernels_compute_scalar_results() {
    let iters = 16;
    for k in suite() {
        let scalar = run_config(&k, &VectorizerConfig::o3(), iters);
        for name in CONFIGS {
            let cfg = VectorizerConfig::preset(name).unwrap();
            let out = run_config(&k, &cfg, iters);
            assert_same_memory(&k, &scalar.mem, &out.mem, name);
        }
    }
}

#[test]
fn cost_ordering_matches_paper() {
    for k in suite() {
        let nr = run_config(&k, &VectorizerConfig::slp_nr(), 1).cost;
        let slp = run_config(&k, &VectorizerConfig::slp(), 1).cost;
        let lslp = run_config(&k, &VectorizerConfig::lslp(), 1).cost;
        assert!(slp <= nr, "{}: SLP {slp} vs SLP-NR {nr}", k.name);
        assert!(lslp <= slp, "{}: LSLP {lslp} vs SLP {slp}", k.name);
        assert!(nr <= 0 && slp <= 0 && lslp <= 0, "{}: applied costs are ≤ 0", k.name);
    }
}

#[test]
fn lslp_speeds_up_majority_of_suite() {
    let iters = 16;
    let mut wins = 0;
    for k in suite() {
        let o3 = run_config(&k, &VectorizerConfig::o3(), iters);
        let lslp = run_config(&k, &VectorizerConfig::lslp(), iters);
        assert!(
            lslp.cycles <= o3.cycles,
            "{}: LSLP must never execute more cycles ({} vs {})",
            k.name,
            lslp.cycles,
            o3.cycles
        );
        if lslp.cycles < o3.cycles {
            wins += 1;
        }
    }
    assert!(wins >= 8, "LSLP should accelerate most of the 11 kernels, got {wins}");
}

#[test]
fn lslp_vectorizes_every_motivation_kernel_slp_cannot() {
    // The headline qualitative claim: kernels built around commutative
    // operand mismatches defeat SLP but not LSLP.
    for name in ["motivation_loads", "motivation_opcodes", "boy_surface", "mesh1"] {
        let k = suite().into_iter().find(|k| k.name == name).unwrap();
        let slp = run_config(&k, &VectorizerConfig::slp(), 1);
        let lslp = run_config(&k, &VectorizerConfig::lslp(), 1);
        assert_eq!(slp.cost, 0, "{name}: SLP finds nothing profitable");
        assert!(lslp.cost < 0, "{name}: LSLP vectorizes");
    }
}

#[test]
fn la_depth_sweep_matches_fig13_shape() {
    // Figure 13: disabling look-ahead (LA0) costs most of LSLP's benefit;
    // moderate depths recover it. Depth is a greedy heuristic, so it is
    // *not* monotone per-kernel (the paper makes the same observation:
    // "local heuristics cannot always guarantee a globally better
    // solution") — we assert the aggregate trend only.
    let totals: Vec<i64> = [0u32, 1, 2, 4, 8]
        .iter()
        .map(|&d| {
            let cfg = VectorizerConfig::lslp_la(d);
            suite().iter().map(|k| run_config(k, &cfg, 1).cost).sum()
        })
        .collect();
    let la0 = totals[0];
    for (i, &t) in totals.iter().enumerate().skip(1) {
        assert!(t < la0, "depth {} total {t} must beat LA0 {la0}", [0, 1, 2, 4, 8][i]);
    }
    // The paper finds depth 4 "a good value": it must capture most of the
    // best total.
    let best = *totals.iter().min().unwrap();
    assert!(totals[3] <= (best * 9) / 10, "LA4 {} vs best {best}", totals[3]);
}

#[test]
fn multinode_size_sweep_matches_fig13_shape() {
    // Figure 13: size 1 (no coarsening) loses to any real multi-node cap;
    // size 3 already captures the full benefit on this suite.
    let totals: Vec<i64> = [1usize, 2, 3, usize::MAX]
        .iter()
        .map(|&s| {
            let cfg = VectorizerConfig::lslp_multi(s);
            suite().iter().map(|k| run_config(k, &cfg, 1).cost).sum()
        })
        .collect();
    assert!(totals[1] < totals[0], "Multi2 {} must beat Multi1 {}", totals[1], totals[0]);
    assert!(totals[2] <= totals[1], "Multi3 {} vs Multi2 {}", totals[2], totals[1]);
    // quartic_cylinder carries degree-4 product chains, so the unlimited
    // cap still improves on size 3.
    assert!(totals[3] <= totals[2], "unbounded {} vs Multi3 {}", totals[3], totals[2]);
}

/// The extended kernel set (complex/quaternion/SU3/stencil/hash shapes)
/// passes the same correctness and ordering checks as Table 2.
#[test]
fn extended_kernels_are_correct_and_ordered() {
    let iters = 8;
    for k in lslp_kernels::extended_kernels() {
        let scalar = run_config(&k, &VectorizerConfig::o3(), iters);
        let mut last_cost = 1;
        for name in ["SLP-NR", "SLP", "LSLP"] {
            let cfg = VectorizerConfig::preset(name).unwrap();
            let out = run_config(&k, &cfg, iters);
            assert_same_memory(&k, &scalar.mem, &out.mem, name);
            assert!(out.cost <= last_cost.max(0), "{}: {name} cost {}", k.name, out.cost);
            last_cost = out.cost;
        }
    }
}

/// At least some of the extended kernels genuinely vectorize under LSLP.
#[test]
fn extended_kernels_vectorize_under_lslp() {
    let mut wins = 0;
    for k in lslp_kernels::extended_kernels() {
        if run_config(&k, &VectorizerConfig::lslp(), 1).cost < 0 {
            wins += 1;
        }
    }
    assert!(wins >= 3, "expected most extended kernels to vectorize, got {wins}");
}
