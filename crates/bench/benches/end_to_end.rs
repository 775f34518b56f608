//! Criterion bench: the full vectorization pass per configuration — the
//! statistically robust backing for Figure 14's wall-clock measurements.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lslp::{vectorize_function, VectorizerConfig};
use lslp_target::CostModel;

fn bench_pass(c: &mut Criterion) {
    let tm = CostModel::skylake_avx2();
    let mut group = c.benchmark_group("vectorize_pass");
    for kernel in lslp_kernels::suite() {
        let f = kernel.compile();
        for cfg_name in ["SLP-NR", "SLP", "LSLP"] {
            let cfg = VectorizerConfig::preset(cfg_name).unwrap();
            group.bench_with_input(BenchmarkId::new(cfg_name, kernel.name), &f, |b, f| {
                b.iter_batched(
                    || f.clone(),
                    |mut f| vectorize_function(&mut f, &cfg, &tm),
                    criterion::BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(30);
    targets = bench_pass
}
criterion_main!(benches);
