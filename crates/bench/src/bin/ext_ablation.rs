//! Ablation study over LSLP's secondary design choices:
//!
//! * look-ahead score aggregation: Sum (the paper's choice) vs Max (its
//!   footnote-4 alternative);
//! * SPLAT-mode detection on/off (Listing 5, line 23).
//!
//! Reports the total applied static cost over the Table 2 suite.

use lslp::{vectorize_function, ScoreAgg, ScoreWeights, VectorizerConfig};
use lslp_target::CostModel;

fn total_cost(cfg: &VectorizerConfig) -> i64 {
    let tm = CostModel::skylake_avx2();
    lslp_kernels::suite()
        .iter()
        .map(|k| {
            let mut f = k.compile();
            vectorize_function(&mut f, cfg, &tm).applied_cost
        })
        .sum()
}

fn main() {
    println!("Ablation: LSLP design choices (total suite cost; lower = better)\n");
    let variants: Vec<(&str, VectorizerConfig)> = vec![
        ("LSLP (Sum, splat on)", VectorizerConfig::lslp()),
        (
            "score aggregation = Max",
            VectorizerConfig { score_agg: ScoreAgg::Max, ..VectorizerConfig::lslp() },
        ),
        ("splat detection off", VectorizerConfig { splat_mode: false, ..VectorizerConfig::lslp() }),
        (
            "LLVM-like score weights",
            VectorizerConfig {
                score_weights: ScoreWeights::llvm_like(),
                ..VectorizerConfig::lslp()
            },
        ),
        (
            "Max + splat off",
            VectorizerConfig {
                score_agg: ScoreAgg::Max,
                splat_mode: false,
                ..VectorizerConfig::lslp()
            },
        ),
    ];
    for (name, cfg) in variants {
        println!("{name:28} {:>6}", total_cost(&cfg));
    }
}
