//! Extension study: SLP-graph throttling (`lslp::throttle`, after the
//! paper's related work \[22\] — Porpodas & Jones, PACT 2015).
//!
//! Throttling cuts cost-harmful subtrees before the profitability
//! decision, which can rescue borderline trees and never makes the chosen
//! cost worse. This binary compares plain LSLP with LSLP+throttling over
//! the Table 2 suite and the generated whole-program population.

use lslp::{vectorize_function, VectorizerConfig};
use lslp_target::CostModel;

fn main() {
    let tm = CostModel::skylake_avx2();
    let plain = VectorizerConfig::lslp();
    let throttled = VectorizerConfig::preset("LSLP-Throttle").unwrap();

    println!("Extension: graph throttling (applied cost; lower = better)\n");
    println!("{:22} {:>8} {:>14}", "Kernel", "LSLP", "LSLP+throttle");
    for k in lslp_kernels::suite() {
        let mut f1 = k.compile();
        let c1 = vectorize_function(&mut f1, &plain, &tm).applied_cost;
        let mut f2 = k.compile();
        let c2 = vectorize_function(&mut f2, &throttled, &tm).applied_cost;
        assert!(c2 <= c1, "{}: throttling must not lose ({c1} -> {c2})", k.name);
        println!("{:22} {:>8} {:>14}", k.name, c1, c2);
    }

    // Whole-program population: count functions where throttling changed
    // the outcome.
    let mut improved = 0;
    let mut total = 0;
    for &(name, ..) in lslp_kernels::BENCHMARKS {
        let wp = lslp_kernels::synthesize(name);
        for p in &wp.functions {
            total += 1;
            let mut f1 = p.function.clone();
            let c1 = vectorize_function(&mut f1, &plain, &tm).applied_cost;
            let mut f2 = p.function.clone();
            let c2 = vectorize_function(&mut f2, &throttled, &tm).applied_cost;
            assert!(c2 <= c1, "@{}: {c1} -> {c2}", p.function.name());
            if c2 < c1 {
                improved += 1;
            }
        }
    }
    println!("\nwhole-program population: throttling improved {improved} of {total} functions");
}
