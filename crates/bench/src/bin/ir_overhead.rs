//! Per-attempt rollback cost: snapshot-clone vs delta-log undo.
//!
//! Two measurements across the fig14 kernel suite:
//!
//! 1. **Attempt micro**: the cost of one guarded attempt's bookkeeping —
//!    `{clone; mutate; restore-by-move}` against
//!    `{begin_txn; mutate; rollback_txn}` on the same function, median of
//!    many batched samples. This isolates exactly the work the delta log
//!    replaces.
//! 2. **End-to-end**: wall-clock of the full vectorizer pass under
//!    `RollbackStrategy::Snapshot` vs `RollbackStrategy::Delta` (same
//!    configuration otherwise), showing what the strategy is worth per
//!    compiled kernel.
//!
//! Results go to stdout as a table and to `BENCH_ir_overhead.json`
//! (`--out` overrides). `--smoke` runs few reps and exits non-zero if the
//! delta strategy is not strictly cheaper than snapshot-clone in the
//! attempt micro (geomean over the suite) — the CI regression gate.

use std::time::Instant;

use lslp::{try_vectorize_function, RollbackStrategy, VectorizerConfig};
use lslp_bench::{format_table, geomean};
use lslp_ir::{Function, InstAttr, Opcode};
use lslp_kernels::suite;
use lslp_target::CostModel;

/// The mutation shape of one vectorization attempt: a handful of new
/// instructions plus a body rebuild (codegen interleaves vector
/// instructions at their positions). Validity is irrelevant — the guard
/// rolls attempts back before anything observes them.
fn attempt_mutation(f: &mut Function) {
    let n = f.body_len();
    let a = f.body()[0];
    let b = f.body()[n / 2];
    for _ in 0..4 {
        f.push(Opcode::Add, f.ty(a), vec![a, b], InstAttr::None);
    }
    let order = f.body().to_vec();
    f.rebuild_body(order);
}

/// Median nanoseconds per attempt for both bookkeeping schemes.
fn attempt_micro(proto: &Function, reps: usize) -> (f64, f64) {
    const BATCH: usize = 64;
    let run = |delta: bool| -> f64 {
        let mut f = proto.clone();
        let mut samples = Vec::with_capacity(reps);
        for rep in 0..=reps {
            let start = Instant::now();
            for _ in 0..BATCH {
                if delta {
                    let mark = f.begin_txn();
                    attempt_mutation(&mut f);
                    f.rollback_txn(mark);
                } else {
                    let snapshot = f.clone();
                    attempt_mutation(&mut f);
                    f = snapshot;
                }
            }
            let per = start.elapsed().as_nanos() as f64 / BATCH as f64;
            if rep > 0 {
                samples.push(per);
            }
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    (run(false), run(true))
}

/// Median microseconds for one full vectorizer pass under a strategy.
fn vectorize_micro(proto: &Function, strategy: RollbackStrategy, reps: usize) -> f64 {
    let tm = CostModel::skylake_avx2();
    let cfg = VectorizerConfig { rollback: strategy, ..VectorizerConfig::lslp() };
    const BATCH: usize = 8;
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let start = Instant::now();
        for _ in 0..BATCH {
            let mut f = proto.clone();
            try_vectorize_function(&mut f, &cfg, &tm).expect("suite kernels compile");
            std::hint::black_box(&f);
        }
        let per = start.elapsed().as_micros() as f64 / BATCH as f64;
        if rep > 0 {
            samples.push(per);
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    name: String,
    snapshot_attempt_ns: f64,
    delta_attempt_ns: f64,
    snapshot_vectorize_us: f64,
    delta_vectorize_us: f64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn emit_json(rows: &[Row], reps: usize, smoke: bool, attempt_gm: f64, vec_gm: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"ir_overhead\",\n");
    out.push_str(&format!("  \"reps\": {reps},\n  \"smoke\": {smoke},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"snapshot_attempt_ns\": {:.1}, \
             \"delta_attempt_ns\": {:.1}, \"attempt_speedup\": {:.3}, \
             \"snapshot_vectorize_us\": {:.1}, \"delta_vectorize_us\": {:.1}}}{}\n",
            json_escape(&r.name),
            r.snapshot_attempt_ns,
            r.delta_attempt_ns,
            r.snapshot_attempt_ns / r.delta_attempt_ns,
            r.snapshot_vectorize_us,
            r.delta_vectorize_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"geomean_attempt_speedup\": {attempt_gm:.3},\n"));
    out.push_str(&format!("  \"geomean_vectorize_speedup\": {vec_gm:.3}\n"));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_path = "BENCH_ir_overhead.json".to_string();
    let mut reps = if smoke { 5 } else { 30 };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {}
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).expect("--reps takes a number")
            }
            "--out" => out_path = it.next().expect("--out takes a path").clone(),
            other => {
                eprintln!("usage: ir_overhead [--smoke] [--reps N] [--out PATH] (got `{other}`)");
                std::process::exit(2);
            }
        }
    }

    let mut rows = Vec::new();
    for k in suite() {
        let proto = k.compile();
        let (snapshot_attempt_ns, delta_attempt_ns) = attempt_micro(&proto, reps);
        let snapshot_vectorize_us = vectorize_micro(&proto, RollbackStrategy::Snapshot, reps);
        let delta_vectorize_us = vectorize_micro(&proto, RollbackStrategy::Delta, reps);
        rows.push(Row {
            name: k.name.to_string(),
            snapshot_attempt_ns,
            delta_attempt_ns,
            snapshot_vectorize_us,
            delta_vectorize_us,
        });
    }

    let headers: Vec<String> =
        ["Kernel", "snap ns/att", "delta ns/att", "att ×", "snap vec µs", "delta vec µs"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.0}", r.snapshot_attempt_ns),
                format!("{:.0}", r.delta_attempt_ns),
                format!("{:.2}", r.snapshot_attempt_ns / r.delta_attempt_ns),
                format!("{:.1}", r.snapshot_vectorize_us),
                format!("{:.1}", r.delta_vectorize_us),
            ]
        })
        .collect();
    print!("{}", format_table(&headers, &table));

    let attempt_ratios: Vec<f64> =
        rows.iter().map(|r| r.snapshot_attempt_ns / r.delta_attempt_ns).collect();
    let vec_ratios: Vec<f64> =
        rows.iter().map(|r| r.snapshot_vectorize_us / r.delta_vectorize_us).collect();
    let attempt_gm = geomean(&attempt_ratios);
    let vec_gm = geomean(&vec_ratios);
    println!("geomean attempt speedup (snapshot/delta): {attempt_gm:.3}");
    println!("geomean vectorize speedup (snapshot/delta): {vec_gm:.3}");

    std::fs::write(&out_path, emit_json(&rows, reps, smoke, attempt_gm, vec_gm))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    if smoke && attempt_gm <= 1.0 {
        eprintln!(
            "REGRESSION: delta rollback is not strictly cheaper than snapshot-clone \
             (geomean attempt speedup {attempt_gm:.3} <= 1.0)"
        );
        std::process::exit(1);
    }
}
