//! Property-based semantics preservation: for random straight-line
//! programs, vectorization under any configuration computes exactly the
//! memory state of the scalar original (bit-exact for integers; within
//! relative tolerance for reassociated fast-math floats).

use proptest::prelude::*;

use lslp::{vectorize_function, VectorizerConfig};
use lslp_interp::{run_function, Memory, Value};
use lslp_ir::{Function, ScalarType};
use lslp_kernels::{generate, GenConfig};
use lslp_target::CostModel;

/// Allocate and deterministically initialize memory for a generated
/// program; returns the argument vector for index `i = 0`.
fn setup(p: &lslp_kernels::GeneratedProgram, salt: u64) -> (Memory, Vec<Value>) {
    let mut mem = Memory::new();
    let f = &p.function;
    let mut args = Vec::new();
    for (k, &param) in f.params().iter().enumerate() {
        if f.ty(param) == lslp_ir::Type::PTR {
            let name = f.value_name(param).unwrap().to_string();
            let ptr = match p.elem {
                ScalarType::F64 => {
                    let init: Vec<f64> = (0..p.min_len)
                        .map(|j| 0.25 + ((j as u64 * 37 + k as u64 * 11 + salt) % 64) as f64 / 16.0)
                        .collect();
                    mem.alloc_f64(&name, &init)
                }
                _ => {
                    let init: Vec<i64> = (0..p.min_len)
                        .map(|j| {
                            ((j as u64 * 2654435761 + k as u64 * 97 + salt) % 1021) as i64 - 300
                        })
                        .collect();
                    mem.alloc_i64(&name, &init)
                }
            };
            args.push(ptr);
        } else {
            args.push(Value::Int(0));
        }
    }
    (mem, args)
}

fn run_and_capture(f: &Function, p: &lslp_kernels::GeneratedProgram, salt: u64) -> Memory {
    let (mut mem, args) = setup(p, salt);
    run_function(f, &args, &mut mem).expect("straight-line programs execute");
    mem
}

fn assert_equivalent(p: &lslp_kernels::GeneratedProgram, scalar: &Memory, vec: &Memory, cfg: &str) {
    for name in scalar.buffer_names() {
        let a = scalar.bytes(name).unwrap();
        let b = vec.bytes(name).unwrap();
        if a == b {
            continue;
        }
        assert_eq!(p.elem, ScalarType::F64, "{cfg}: integer buffer {name} differs");
        for (idx, (ca, cb)) in a.chunks(8).zip(b.chunks(8)).enumerate() {
            let x = f64::from_le_bytes(ca.try_into().unwrap());
            let y = f64::from_le_bytes(cb.try_into().unwrap());
            let tol = 1e-8 * x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= tol, "{cfg}: {name}[{idx}] = {x} vs {y}");
        }
    }
}

fn check_all_configs(gen_cfg: GenConfig) {
    let p = generate(&gen_cfg);
    let scalar_mem = run_and_capture(&p.function, &p, gen_cfg.seed);
    let tm = CostModel::skylake_avx2();
    for name in ["SLP-NR", "SLP", "LSLP", "LSLP-LA0", "LSLP-LA2", "LSLP-Multi2", "LSLP-Throttle"] {
        let cfg = VectorizerConfig::preset(name).unwrap();
        let mut f = p.function.clone();
        vectorize_function(&mut f, &cfg, &tm);
        lslp_ir::verify_function(&f)
            .unwrap_or_else(|e| panic!("{name} seed {}: {e}", gen_cfg.seed));
        let vec_mem = run_and_capture(&f, &p, gen_cfg.seed);
        assert_equivalent(&p, &scalar_mem, &vec_mem, name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Integer programs must be bit-exact under every configuration.
    #[test]
    fn integer_programs_are_bit_exact(
        seed in 0u64..1_000_000,
        groups in 1usize..4,
        lanes in prop::sample::select(vec![2usize, 3, 4]),
        depth in 1u32..5,
        swap in 0.0f64..1.0,
        arrays in 1usize..4,
    ) {
        check_all_configs(GenConfig {
            seed, groups, lanes, depth, int: true, swap_prob: swap, arrays,
        });
    }

    /// Float programs must match within relative tolerance (fast-math
    /// reassociation inside multi-nodes may reorder additions).
    #[test]
    fn float_programs_match_within_tolerance(
        seed in 0u64..1_000_000,
        groups in 1usize..3,
        lanes in prop::sample::select(vec![2usize, 4]),
        depth in 1u32..5,
        swap in 0.0f64..1.0,
        arrays in 1usize..4,
    ) {
        check_all_configs(GenConfig {
            seed, groups, lanes, depth, int: false, swap_prob: swap, arrays,
        });
    }

    /// Without fast-math, float vectorization must be bit-exact (operand
    /// commutation is exact in IEEE-754; reassociation is disabled).
    #[test]
    fn strict_float_programs_are_bit_exact(
        seed in 0u64..1_000_000,
        depth in 1u32..5,
        swap in 0.0f64..1.0,
    ) {
        let gen_cfg = GenConfig {
            seed, groups: 2, lanes: 2, depth, int: false, swap_prob: swap, arrays: 2,
        };
        let p = generate(&gen_cfg);
        let scalar_mem = run_and_capture(&p.function, &p, seed);
        let tm = CostModel::skylake_avx2();
        let cfg = VectorizerConfig { fast_math: false, ..VectorizerConfig::lslp() };
        let mut f = p.function.clone();
        vectorize_function(&mut f, &cfg, &tm);
        let vec_mem = run_and_capture(&f, &p, seed);
        for name in scalar_mem.buffer_names() {
            prop_assert_eq!(scalar_mem.bytes(name), vec_mem.bytes(name), "buffer {}", name);
        }
    }

    /// Vectorization never increases the simulated cycle count.
    #[test]
    fn vectorization_never_slows_down(
        seed in 0u64..1_000_000,
        lanes in prop::sample::select(vec![2usize, 4]),
        swap in 0.0f64..1.0,
    ) {
        let gen_cfg = GenConfig {
            seed, groups: 2, lanes, depth: 3, int: true, swap_prob: swap, arrays: 3,
        };
        let p = generate(&gen_cfg);
        let tm = CostModel::skylake_avx2();
        let base = lslp_interp::perf::body_cycles(&p.function, &tm);
        let mut f = p.function.clone();
        vectorize_function(&mut f, &VectorizerConfig::lslp(), &tm);
        let after = lslp_interp::perf::body_cycles(&f, &tm);
        prop_assert!(after <= base, "cycles {} -> {}", base, after);
    }
}

/// Reduction-seed vectorization (`lslp::reduce`) preserves semantics on
/// randomized reduction chains.
mod reductions {
    use super::*;
    use lslp_ir::{Function, FunctionBuilder, Opcode, Type, ValueId};

    /// Builds `R[0] = X[p(0)] ⊕ X[p(1)] ⊕ ... ⊕ X[p(n-1)]` with a seeded
    /// association order, where `p` shuffles which element each term loads.
    fn reduction_program(op: Opcode, n: usize, seed: u64) -> Function {
        let mut f = Function::new("red");
        let r = f.add_param("R", Type::PTR);
        let x = f.add_param("X", Type::PTR);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let mut terms: Vec<ValueId> = Vec::new();
        let mut state = seed | 1;
        for k in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Mildly shuffled offsets keep some loads non-consecutive.
            let off = if state.is_multiple_of(3) { (k + n) as i64 } else { k as i64 };
            let c = b.func().const_i64(off);
            let idx = b.add(i, c);
            let g = b.gep(x, idx, 8);
            terms.push(b.load(Type::I64, g));
        }
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = b.binop(op, acc, t);
        }
        b.store(acc, r);
        f
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn reduction_vectorization_is_bit_exact(
            seed in 0u64..100_000,
            n in 4usize..12,
            op in prop::sample::select(vec![Opcode::Add, Opcode::Xor, Opcode::And, Opcode::Or, Opcode::Mul, Opcode::SMax]),
        ) {
            let scalar = reduction_program(op, n, seed);
            let mut vectorized = scalar.clone();
            let cfg = VectorizerConfig {
                enable_reductions: true,
                ..VectorizerConfig::lslp()
            };
            lslp::vectorize_function(&mut vectorized, &cfg, &CostModel::skylake_avx2());
            lslp_ir::verify_function(&vectorized).unwrap();

            let exec = |f: &Function| {
                let mut mem = Memory::new();
                let init: Vec<i64> = (0..(2 * n + 8) as i64).map(|j| j * 7 - 11).collect();
                mem.alloc_i64("X", &init);
                mem.alloc_i64("R", &[0; 4]);
                let args = vec![
                    mem.ptr("R").unwrap(),
                    mem.ptr("X").unwrap(),
                    Value::Int(0),
                ];
                run_function(f, &args, &mut mem).unwrap();
                mem.read_i64("R", 0).unwrap()
            };
            prop_assert_eq!(exec(&scalar), exec(&vectorized));
        }
    }
}

/// The full `-O3`-style pipeline (simplify + fold + CSE + DCE around the
/// vectorizer) preserves semantics end to end.
mod pipeline_equivalence {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn o3_pipeline_preserves_semantics(
            seed in 0u64..1_000_000,
            groups in 1usize..4,
            depth in 1u32..5,
            swap in 0.0f64..1.0,
        ) {
            let gen_cfg = GenConfig {
                seed, groups, lanes: 2, depth, int: true, swap_prob: swap, arrays: 3,
            };
            let p = generate(&gen_cfg);
            let scalar_mem = run_and_capture(&p.function, &p, seed);
            let tm = CostModel::skylake_avx2();
            for name in ["O3", "LSLP"] {
                let cfg = VectorizerConfig::preset(name).unwrap();
                let mut f = p.function.clone();
                lslp::run_pipeline(&mut f, &cfg, &tm);
                lslp_ir::verify_function(&f)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let out_mem = run_and_capture(&f, &p, seed);
                for bufname in scalar_mem.buffer_names() {
                    prop_assert_eq!(
                        scalar_mem.bytes(bufname),
                        out_mem.bytes(bufname),
                        "pipeline {} changed buffer {}",
                        name,
                        bufname
                    );
                }
            }
        }
    }

    /// A large generated program (hundreds of instructions, many store
    /// groups, deep expressions) goes through the whole pipeline quickly
    /// and correctly.
    #[test]
    fn stress_large_program() {
        let gen_cfg = GenConfig {
            seed: 77,
            groups: 24,
            lanes: 4,
            depth: 5,
            int: true,
            swap_prob: 0.6,
            arrays: 6,
        };
        let p = generate(&gen_cfg);
        assert!(p.function.body_len() > 1000, "len {}", p.function.body_len());
        let scalar_mem = run_and_capture(&p.function, &p, 77);
        let tm = CostModel::skylake_avx2();
        let mut f = p.function.clone();
        let report = lslp::run_pipeline(&mut f, &VectorizerConfig::lslp(), &tm);
        assert!(report.vectorize.trees_vectorized > 0, "stress program must vectorize");
        lslp_ir::verify_function(&f).unwrap();
        let out_mem = run_and_capture(&f, &p, 77);
        for name in scalar_mem.buffer_names() {
            assert_eq!(scalar_mem.bytes(name), out_mem.bytes(name), "buffer {name}");
        }
    }
}
