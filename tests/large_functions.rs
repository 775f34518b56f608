//! Golden test for large generated functions: the LSLP pipeline output of
//! `lslp_kernels::generate` functions with 8, 20 and 32 four-lane store
//! groups (about 900 to 3500 instructions, up to ~1,200 CSE merges each).
//! The suite goldens never reach this size, where the scalar passes batch
//! hundreds of use rewrites per sweep.
//!
//! Each case pins an FNV-1a hash of the printed IR plus the rewrite counts
//! of CSE, constant folding and algebraic simplification. A hash mismatch
//! means the compiled code changed; print the IR of the failing case and
//! diff it against the previous build to see how.

use lslp::{CompileOptions, Session};
use lslp_ir::Module;
use lslp_kernels::{generate, GenConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One pinned case: generator shape and seed, then the expected output:
/// (IR hash, CSE merges, folds, simplifications).
struct Case {
    groups: usize,
    int: bool,
    seed: u64,
    ir_hash: u64,
    cse_merged: usize,
    folded: usize,
    simplified: usize,
}

const CASES: [Case; 6] = [
    Case {
        groups: 8,
        int: true,
        seed: 11,
        ir_hash: 0xbcd77efd52ae1767,
        cse_merged: 483,
        folded: 20,
        simplified: 45,
    },
    Case {
        groups: 8,
        int: false,
        seed: 12,
        ir_hash: 0xf72a9e2203ca923f,
        cse_merged: 304,
        folded: 28,
        simplified: 26,
    },
    Case {
        groups: 20,
        int: true,
        seed: 21,
        ir_hash: 0xbd733ed443b730d5,
        cse_merged: 1339,
        folded: 32,
        simplified: 123,
    },
    Case {
        groups: 20,
        int: false,
        seed: 22,
        ir_hash: 0x25194a0fd1b9f08a,
        cse_merged: 1215,
        folded: 44,
        simplified: 51,
    },
    Case {
        groups: 32,
        int: true,
        seed: 31,
        ir_hash: 0x14320b61bf635977,
        cse_merged: 2037,
        folded: 52,
        simplified: 112,
    },
    Case {
        groups: 32,
        int: false,
        seed: 32,
        ir_hash: 0x0f427798034afa56,
        cse_merged: 1999,
        folded: 32,
        simplified: 134,
    },
];

fn compile(case: &Case) -> (u64, usize, usize, usize) {
    let p = generate(&GenConfig {
        seed: case.seed,
        groups: case.groups,
        lanes: 4,
        depth: 4,
        int: case.int,
        swap_prob: 0.5,
        arrays: 3,
    });
    let mut module = Module::new();
    module.functions.push(p.function);
    let opts = CompileOptions::preset("LSLP").build().expect("LSLP is a valid preset");
    let art = Session::new(opts).optimize(module).expect("LSLP compiles generated code");
    let r = &art.reports[0];
    (fnv1a(art.ir().as_bytes()), r.cse_merged, r.folded, r.simplified)
}

#[test]
fn large_generated_functions_are_byte_stable() {
    let mut mismatches = Vec::new();
    for case in &CASES {
        let got = compile(case);
        let want = (case.ir_hash, case.cse_merged, case.folded, case.simplified);
        if got != want {
            let (g, w) = (got, want);
            mismatches.push(format!(
                "groups={} int={} seed={}: got ({:#018x}, {}, {}, {}), want ({:#018x}, {}, {}, {})",
                case.groups, case.int, case.seed, g.0, g.1, g.2, g.3, w.0, w.1, w.2, w.3
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_larger_cases_reach_the_thousand_merge_regime() {
    for case in CASES.iter().filter(|c| c.groups >= 20) {
        assert!(case.cse_merged >= 1000, "groups={} merges {}", case.groups, case.cse_merged);
    }
}

/// One compile of a `gen_large`-shaped function with `groups` four-lane
/// store groups: the vectorize pass's time per committed tree, in
/// microseconds.
fn vectorize_us_per_tree(session: &mut Session, f: &lslp_ir::Function) -> f64 {
    let mut module = Module::new();
    module.functions.push(f.clone());
    let art = session.optimize(module).expect("LSLP compiles generated code");
    let r = &art.reports[0];
    let pass = r.pass_timings.iter().find(|t| t.pass == "vectorize").expect("timed");
    pass.time.as_secs_f64() * 1e6 / r.vectorize.trees_vectorized.max(1) as f64
}

/// A committed tree costs O(tree plus its users), not O(body): the
/// vectorizer's time per committed tree on a 32-group function stays
/// within 2× of an 8-group one (a per-commit whole-body sweep makes it
/// about 4×, the size ratio). Best of five, with the two sizes
/// interleaved so a slow phase of the host hits both alike.
#[test]
#[ignore = "timing gate: CI runs it in release"]
fn vectorizer_cost_per_tree_does_not_grow_with_the_body() {
    let function = |groups| {
        generate(&GenConfig {
            seed: 7,
            groups,
            lanes: 4,
            depth: 4,
            int: true,
            swap_prob: 0.5,
            arrays: 3,
        })
        .function
    };
    let (f8, f32) = (function(8), function(32));
    let opts = CompileOptions::preset("LSLP").build().expect("LSLP is a valid preset");
    let mut session = Session::new(opts);
    let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        small = small.min(vectorize_us_per_tree(&mut session, &f8));
        large = large.min(vectorize_us_per_tree(&mut session, &f32));
    }
    let ratio = large / small;
    println!("vectorize us/tree: 8 groups {small:.1}, 32 groups {large:.1}, ratio {ratio:.2}");
    assert!(ratio <= 2.0, "per-tree vectorize cost grows with the body: {ratio:.2}x");
}
