//! Domain example: the 433.milc-shaped SU(2) matrix × vector kernel.
//!
//! Demonstrates the full workflow on a real workload: compile, vectorize
//! under every paper configuration, validate results against the scalar
//! run, and report simulated speedups.
//!
//! Run with: `cargo run -p lslp --example su2_matvec`

use lslp::{vectorize_function, VectorizerConfig};
use lslp_target::CostModel;

fn main() {
    for kernel in [
        lslp_kernels::spec_kernels()
            .into_iter()
            .find(|k| k.name == "mult_su2")
            .expect("suite contains mult_su2"),
        lslp_kernels::extended_kernels()
            .into_iter()
            .find(|k| k.name == "su3_row")
            .expect("extended suite contains su3_row"),
    ] {
        demo(&kernel);
        println!();
    }
    println!(
        "Note: mult_su2 staying scalar is faithful — the paper singles this \n\
         kernel out as a cost-model trouble spot; the SU(3) row kernel shows \n\
         the profitable case."
    );
}

fn demo(kernel: &lslp_kernels::Kernel) {
    println!(
        "kernel {} (from {} {}):\n{}\n",
        kernel.name, kernel.benchmark, kernel.file_line, kernel.src
    );

    let tm = CostModel::skylake_avx2();
    let iters = kernel.default_iters;

    // Scalar baseline.
    let scalar = kernel.compile();
    let mut base_mem = kernel.setup_memory(&scalar, iters);
    let base_cycles = kernel.run(&scalar, &mut base_mem, iters, &tm).expect("scalar run");
    println!("O3 (scalar): {base_cycles} simulated cycles over {iters} sites");

    for name in ["SLP-NR", "SLP", "LSLP"] {
        let cfg = VectorizerConfig::preset(name).unwrap();
        let mut f = kernel.compile();
        let report = vectorize_function(&mut f, &cfg, &tm);
        let mut mem = kernel.setup_memory(&f, iters);
        let cycles = kernel.run(&f, &mut mem, iters, &tm).expect("vectorized run");

        // Validate: the D array must match the scalar result exactly up to
        // fast-math reassociation.
        let mut max_rel = 0.0f64;
        let out_arr = base_mem.buffer_names()[0].to_string();
        let d_len = kernel.array_len(iters);
        for idx in 0..d_len {
            let x = base_mem.read_f64(&out_arr, idx).unwrap();
            let y = mem.read_f64(&out_arr, idx).unwrap();
            let rel = (x - y).abs() / x.abs().max(1.0);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 1e-9, "{name}: results diverged by {max_rel}");

        println!(
            "{name:7}: static cost {:4}, {} tree(s), {cycles} cycles, speedup {:.3}x, max rel err {max_rel:.2e}",
            report.applied_cost,
            report.trees_vectorized,
            base_cycles as f64 / cycles as f64,
        );
    }
}
