//! Printer/parser round-trip properties over realistic (generated and
//! vectorized) functions, plus verifier stability across the pipeline.

use proptest::prelude::*;

use lslp::{vectorize_function, VectorizerConfig};
use lslp_ir::{parse_function, print_function, verify_function};
use lslp_kernels::{generate, GenConfig};
use lslp_target::CostModel;

fn roundtrip(f: &lslp_ir::Function) {
    let printed = print_function(f);
    let reparsed =
        parse_function(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
    verify_function(&reparsed).unwrap_or_else(|e| panic!("reverify failed: {e}\n{printed}"));
    let reprinted = print_function(&reparsed);
    assert_eq!(printed, reprinted, "printing must be a fixed point");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Scalar generated programs round-trip through the textual format.
    #[test]
    fn generated_programs_roundtrip(
        seed in 0u64..1_000_000,
        int in any::<bool>(),
        depth in 1u32..5,
    ) {
        let p = generate(&GenConfig { seed, int, depth, ..GenConfig::default() });
        roundtrip(&p.function);
    }

    /// Vectorized programs (vector loads/stores, inserts, extracts,
    /// shuffles, vector constants) also round-trip.
    #[test]
    fn vectorized_programs_roundtrip(
        seed in 0u64..1_000_000,
        int in any::<bool>(),
        swap in 0.0f64..1.0,
    ) {
        let p = generate(&GenConfig {
            seed, int, swap_prob: swap, depth: 3, ..GenConfig::default()
        });
        let mut f = p.function;
        vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::skylake_avx2());
        roundtrip(&f);
    }

    /// The verifier accepts everything the vectorizer produces, across all
    /// presets (verifier stability).
    #[test]
    fn verifier_accepts_all_pipeline_outputs(
        seed in 0u64..1_000_000,
        lanes in prop::sample::select(vec![2usize, 4]),
    ) {
        let p = generate(&GenConfig { seed, lanes, ..GenConfig::default() });
        for name in ["O3", "SLP-NR", "SLP", "LSLP", "LSLP-LA4", "LSLP-Multi3"] {
            let mut f = p.function.clone();
            vectorize_function(
                &mut f,
                &VectorizerConfig::preset(name).unwrap(),
                &CostModel::skylake_avx2(),
            );
            verify_function(&f).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn suite_kernels_roundtrip_before_and_after_vectorization() {
    for k in lslp_kernels::suite() {
        let f = k.compile();
        roundtrip(&f);
        let mut v = f.clone();
        vectorize_function(&mut v, &VectorizerConfig::lslp(), &CostModel::skylake_avx2());
        roundtrip(&v);
    }
}

/// Feeding arbitrary text to the IR parser must never panic — it either
/// parses (and then verifies/round-trips) or returns a positioned error.
mod parser_robustness {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn ir_parser_never_panics(src in "[ -~\n]{0,200}") {
            let _ = lslp_ir::parse_module(&src);
        }

        #[test]
        fn slc_parser_never_panics(src in "[ -~\n]{0,200}") {
            let _ = lslp_frontend::compile(&src);
        }

        /// Mutating a valid printed function must not panic the parser and,
        /// when it still parses + verifies, must keep round-tripping.
        #[test]
        fn mutated_ir_stays_total(seed in 0u64..10_000, cut in 0usize..100) {
            let p = lslp_kernels::generate(&lslp_kernels::GenConfig {
                seed,
                ..lslp_kernels::GenConfig::default()
            });
            let mut text = lslp_ir::print_function(&p.function);
            if !text.is_empty() {
                let at = cut % text.len();
                prop_assume!(text.is_char_boundary(at)); // printer emits ASCII
                text.remove(at);
            }
            if let Ok(f) = lslp_ir::parse_function(&text) {
                if lslp_ir::verify_function(&f).is_ok() {
                    let printed = lslp_ir::print_function(&f);
                    let again = lslp_ir::parse_function(&printed).expect("fixed point parses");
                    prop_assert_eq!(printed, lslp_ir::print_function(&again));
                }
            }
        }
    }
}
