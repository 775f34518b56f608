//! Extension study: horizontal-reduction seeds (`lslp::reduce`).
//!
//! The paper lists reduction trees as a seed class (§2.2) but does not
//! evaluate them; this binary measures what enabling them adds on top of
//! each configuration, using dot-product / norm kernels written in SLC.

use lslp::{vectorize_function, VectorizerConfig};
use lslp_target::CostModel;

fn main() {
    let tm = CostModel::skylake_avx2();
    println!("Extension: horizontal-reduction seeds (cost; lower = better)\n");
    println!(
        "{:10} {:>14} {:>18} {:>20}",
        "Kernel", "LSLP", "LSLP+reductions", "reduction attempts"
    );
    for k in lslp_kernels::reduction_kernels() {
        let base = {
            let mut f = k.compile();
            vectorize_function(&mut f, &VectorizerConfig::lslp(), &tm).applied_cost
        };
        let mut f = k.compile();
        let cfg = VectorizerConfig { enable_reductions: true, ..VectorizerConfig::lslp() };
        let report = vectorize_function(&mut f, &cfg, &tm);
        lslp_ir::verify_function(&f).unwrap();

        // Correctness: compare against the scalar kernel on real data.
        let scalar = k.compile();
        let iters = 8;
        let mut m1 = k.setup_memory(&scalar, iters);
        k.run(&scalar, &mut m1, iters, &tm).unwrap();
        let mut m2 = k.setup_memory(&f, iters);
        k.run(&f, &mut m2, iters, &tm).unwrap();
        for name in m1.buffer_names() {
            let (a, b) = (m1.bytes(name).unwrap(), m2.bytes(name).unwrap());
            if a != b {
                for (ca, cb) in a.chunks(8).zip(b.chunks(8)) {
                    let x = f64::from_le_bytes(ca.try_into().unwrap());
                    let y = f64::from_le_bytes(cb.try_into().unwrap());
                    assert!(
                        (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                        "{}: {name} diverged: {x} vs {y}",
                        k.name
                    );
                }
            }
        }

        let attempts: Vec<String> = report
            .reductions
            .iter()
            .map(|r| format!("{} (cost {})", if r.applied { "applied" } else { "skipped" }, r.cost))
            .collect();
        println!(
            "{:10} {:>14} {:>18} {:>20}",
            k.name,
            base,
            report.applied_cost,
            attempts.join("; ")
        );
    }
}
