//! Quickstart: compile a small SLC kernel, vectorize it with SLP and LSLP,
//! and compare what each algorithm achieves.
//!
//! Run with: `cargo run -p lslp --example quickstart`

use lslp::{vectorize_function, VectorizerConfig};
use lslp_interp::{measure_cycles, Memory, Value};
use lslp_target::CostModel;

fn main() {
    // Figure 2 of the paper: the load-address-mismatch example. The two
    // lanes shift B and C in opposite orders, so vanilla SLP cannot pair
    // the loads — LSLP's look-ahead can.
    let src = "kernel fig2(i64* A, i64* B, i64* C, i64 i) {
                   A[i+0] = (B[i+0] << 1) & (C[i+0] << 2);
                   A[i+1] = (C[i+1] << 3) & (B[i+1] << 4);
               }";
    let module = lslp_frontend::compile(src).expect("SLC compiles");
    let scalar = module.functions.into_iter().next().unwrap();
    let tm = CostModel::skylake_avx2();

    println!("=== scalar IR ===\n{}", lslp_ir::print_function(&scalar));

    for name in ["SLP-NR", "SLP", "LSLP"] {
        let cfg = VectorizerConfig::preset(name).unwrap();
        let mut f = scalar.clone();
        let report = vectorize_function(&mut f, &cfg, &tm);
        println!("=== {name} ===");
        for a in &report.attempts {
            println!(
                "  seed {} (VF={}): cost {} -> {}",
                a.seed,
                a.vf,
                a.cost,
                if a.vectorized { "vectorized" } else { "kept scalar" }
            );
        }
        // Execute both versions and compare simulated cycles.
        let mut mem = Memory::new();
        mem.alloc_i64("A", &[0; 16]);
        mem.alloc_i64("B", &[3, 5, 7, 11, 13, 17, 19, 23]);
        mem.alloc_i64("C", &[2, 4, 6, 8, 10, 12, 14, 16]);
        let args = vec![
            mem.ptr("A").unwrap(),
            mem.ptr("B").unwrap(),
            mem.ptr("C").unwrap(),
            Value::Int(0),
        ];
        let base = {
            let mut m2 = Memory::new();
            m2.alloc_i64("A", &[0; 16]);
            m2.alloc_i64("B", &[3, 5, 7, 11, 13, 17, 19, 23]);
            m2.alloc_i64("C", &[2, 4, 6, 8, 10, 12, 14, 16]);
            let args2 = vec![
                m2.ptr("A").unwrap(),
                m2.ptr("B").unwrap(),
                m2.ptr("C").unwrap(),
                Value::Int(0),
            ];
            measure_cycles(&scalar, &args2, &mut m2, &tm).unwrap().cycles
        };
        let perf = measure_cycles(&f, &args, &mut mem, &tm).unwrap();
        println!(
            "  simulated cycles: {} (scalar {}), speedup {:.2}x",
            perf.cycles,
            base,
            base as f64 / perf.cycles as f64
        );
        println!("  A = [{}, {}]", mem.read_i64("A", 0).unwrap(), mem.read_i64("A", 1).unwrap());
        if name == "LSLP" {
            println!("\n=== LSLP output IR ===\n{}", lslp_ir::print_function(&f));
        }
    }
}
