//! Cross-crate pipeline tests: SLC source → IR → vectorizer → interpreter,
//! exercising the public API the way a downstream user would.

use std::rc::Rc;

use lslp::{
    vectorize_function, AnalysisKind, AnalysisManager, Artifact, CompileOptions, GuardMode,
    GuardPolicy, Pass, PassContext, PassManager, PassResult, PreservedAnalyses, ReorderStrategy,
    Session, Statistics, VectorizePass, VectorizerConfig,
};
use lslp_interp::{run_function, Memory, Value};

use lslp_target::CostModel;

/// Run the vectorizer alone over every kernel of `src` under `preset`,
/// through the embedding API.
fn vectorize(src: &str, preset: &str) -> Artifact {
    let opts = CompileOptions::preset(preset).vectorize_only().build().unwrap();
    Session::new(opts).compile(src).unwrap()
}

#[test]
fn slc_to_simd_end_to_end() {
    // The classic saxpy-like kernel, 4 lanes wide.
    let src = "kernel saxpy4(f64* Y, f64* X, f64 a, i64 i) {
                   Y[i+0] = Y[i+0] + a * X[i+0];
                   Y[i+1] = Y[i+1] + a * X[i+1];
                   Y[i+2] = Y[i+2] + a * X[i+2];
                   Y[i+3] = Y[i+3] + a * X[i+3];
               }";
    let a = vectorize(src, "LSLP");
    assert_eq!(a.reports[0].vectorize.trees_vectorized, 1);
    let text = lslp_ir::print_function(&a.module.functions[0]);
    assert!(text.contains("<4 x f64>"), "{text}");

    let mut mem = Memory::new();
    let y = mem.alloc_f64("Y", &[1.0, 2.0, 3.0, 4.0]);
    let x = mem.alloc_f64("X", &[10.0, 20.0, 30.0, 40.0]);
    run_function(&a.module.functions[0], &[y, x, Value::Float(0.5), Value::Int(0)], &mut mem)
        .unwrap();
    assert_eq!(mem.read_f64("Y", 0), Some(6.0));
    assert_eq!(mem.read_f64("Y", 3), Some(24.0));
}

#[test]
fn listing1_compiles_and_vectorizes_under_plain_slp() {
    // Listing 1 of the paper: operands in the wrong order; vanilla SLP's
    // opcode-based reordering is sufficient.
    let src = "kernel listing1(i64* E, i64* A, i64 x, i64 y, i64 i) {
                   E[i+0] = (x - 1) + A[i+0];
                   E[i+1] = A[i+1] + (y - 1);
               }";
    let slp = vectorize(src, "SLP");
    assert_eq!(slp.reports[0].vectorize.trees_vectorized, 1, "SLP reorders Listing 1 fine");

    // But with reordering disabled (SLP-NR) the same kernel fails.
    let nr = vectorize(src, "SLP-NR");
    assert_eq!(nr.reports[0].vectorize.trees_vectorized, 0, "SLP-NR cannot fix the order");
}

#[test]
fn listing2_defeats_slp_but_not_lslp() {
    // Listing 2 of the paper: all operands are multiplications; only the
    // look-ahead can decide the pairing.
    let src = "kernel listing2(i64* E, i64* A, i64* B, i64* C, i64* D, i64 i) {
                   E[i+0] = A[i+0]*B[i+0] + C[i+0]*D[i+0];
                   E[i+1] = C[i+1]*D[i+1] + A[i+1]*B[i+1];
               }";
    let slp = vectorize(src, "SLP");
    let lslp = vectorize(src, "LSLP");
    let (slp_cost, lslp_cost) =
        (slp.reports[0].vectorize.applied_cost, lslp.reports[0].vectorize.applied_cost);
    assert!(lslp_cost < slp_cost, "LSLP {lslp_cost} must beat SLP {slp_cost}");
    // LSLP vectorizes the whole tree including all eight loads.
    let text = lslp_ir::print_function(&lslp.module.functions[0]);
    assert_eq!(text.matches("load <2 x i64>").count(), 4, "{text}");
}

#[test]
fn reports_expose_attempt_details() {
    let src = "kernel two_groups(i64* A, i64* B, i64 i) {
                   A[i+0] = B[i+0] + 1;
                   A[i+1] = B[i+1] + 2;
                   A[i+9] = B[i+9] * 3;
                   A[i+10] = B[i+10] * 4;
               }";
    let mut m = lslp_frontend::compile(src).unwrap();
    let mut f = m.functions.remove(0);
    let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
    assert_eq!(report.trees_vectorized, 2);
    assert_eq!(report.attempts.iter().filter(|a| a.vectorized).count(), 2);
    for a in &report.attempts {
        assert_eq!(a.vf, 2);
        assert!(a.seed.starts_with("A[+"), "seed desc: {}", a.seed);
        assert!(a.nodes > 0);
    }
    assert!(report.stats.stores_deleted == 4);
    assert!(report.elapsed.as_nanos() > 0);
}

#[test]
fn config_presets_differ_only_where_documented() {
    let slp = VectorizerConfig::slp();
    let nr = VectorizerConfig::slp_nr();
    assert_eq!(nr.max_multinode_insts, slp.max_multinode_insts);
    assert_eq!(nr.reorder, ReorderStrategy::NoReorder);
    let lslp = VectorizerConfig::lslp();
    assert_eq!(lslp.cost_threshold, slp.cost_threshold);
    assert_eq!(lslp.max_vf, slp.max_vf);
}

#[test]
fn whole_module_vectorization_handles_mixed_functions() {
    let src = "kernel vec(i64* A, i64* B, i64 i) {
                   A[i+0] = B[i+0] ^ 1;
                   A[i+1] = B[i+1] ^ 2;
               }
               kernel scalar_only(i64* A, i64 i) {
                   A[i*i] = 7;
               }";
    let a = vectorize(src, "LSLP");
    assert_eq!(a.reports.len(), 2);
    assert_eq!(a.reports[0].vectorize.trees_vectorized, 1);
    assert_eq!(a.reports[1].vectorize.trees_vectorized, 0);
    lslp_ir::verify_module(&a.module).unwrap();
}

#[test]
fn fast_math_gates_fp_multinodes() {
    let src = "kernel dot3(f64* R, f64* X, i64 i) {
                   R[i+0] = X[3*i+0] + X[3*i+1] + X[3*i+2];
                   R[i+1] = X[3*i+4] + X[3*i+3] + X[3*i+5];
               }";
    // `fast_math` is no compile option: drive the function-level entry
    // point with a hand-built configuration.
    let tm = CostModel::default();
    let f = lslp_frontend::compile(src).unwrap().functions.remove(0);
    let strict_cfg = VectorizerConfig { fast_math: false, ..VectorizerConfig::lslp() };
    let strict = vectorize_function(&mut f.clone(), &strict_cfg, &tm);
    let fast = vectorize_function(&mut f.clone(), &VectorizerConfig::lslp(), &tm);
    assert!(
        fast.applied_cost <= strict.applied_cost,
        "fast-math multi-nodes must not lose: fast {} strict {}",
        fast.applied_cost,
        strict.applied_cost
    );
}

#[test]
fn casts_compile_interpret_and_vectorize() {
    // Widen i32 samples, scale in f64, truncate back — a classic DSP-style
    // conversion kernel. All four lanes are isomorphic casts.
    let src = "kernel widen_scale(i32* OUT, i32* IN, f64 g, i64 i) {
                   OUT[i+0] = ((IN[i+0] as f64) * g) as i32;
                   OUT[i+1] = ((IN[i+1] as f64) * g) as i32;
                   OUT[i+2] = ((IN[i+2] as f64) * g) as i32;
                   OUT[i+3] = ((IN[i+3] as f64) * g) as i32;
               }";
    let a = vectorize(src, "LSLP");
    assert_eq!(a.reports[0].vectorize.trees_vectorized, 1, "cast lanes must vectorize");
    lslp_ir::verify_module(&a.module).unwrap();
    let text = lslp_ir::print_function(&a.module.functions[0]);
    assert!(text.contains("sitofp <4 x i32>"), "{text}");
    assert!(text.contains("fptosi <4 x f64>"), "{text}");

    // Round-trip the vectorized cast IR through the textual format.
    let reparsed = lslp_ir::parse_function(&text).unwrap();
    assert_eq!(lslp_ir::print_function(&reparsed), text);

    // And execute it.
    let mut mem = Memory::new();
    mem.alloc("OUT", 8 * 4);
    let p_in = mem.alloc("IN", 8 * 4);
    for (k, v) in [3i64, -7, 100, 0].into_iter().enumerate() {
        mem.write_scalar(&p_in, (k * 4) as i64, lslp_ir::ScalarType::I32, Value::Int(v)).unwrap();
    }
    let args =
        vec![mem.ptr("OUT").unwrap(), mem.ptr("IN").unwrap(), Value::Float(2.5), Value::Int(0)];
    run_function(&a.module.functions[0], &args, &mut mem).unwrap();
    let out = mem.ptr("OUT").unwrap();
    let read = |k: usize, mem: &Memory| {
        mem.read_scalar(&out, (k * 4) as i64, lslp_ir::ScalarType::I32).unwrap().as_int()
    };
    assert_eq!(read(0, &mem), 7); // 3 * 2.5 = 7.5 → 7
    assert_eq!(read(1, &mem), -17); // -7 * 2.5 = -17.5 → -17
    assert_eq!(read(2, &mem), 250);
    assert_eq!(read(3, &mem), 0);
}

fn saxpy_function() -> lslp_ir::Function {
    let src = "kernel saxpy4(f64* Y, f64* X, f64 a, i64 i) {
                   Y[i+0] = Y[i+0] + a * X[i+0];
                   Y[i+1] = Y[i+1] + a * X[i+1];
                   Y[i+2] = Y[i+2] + a * X[i+2];
                   Y[i+3] = Y[i+3] + a * X[i+3];
               }";
    lslp_frontend::compile(src).unwrap().functions.remove(0)
}

#[test]
fn analysis_cache_serves_repeat_queries_warm() {
    let f = saxpy_function();
    let mut am = AnalysisManager::new();
    let a1 = am.addr_info(&f);
    let p1 = am.positions(&f);
    let u1 = am.use_map(&f);
    // Nothing mutated the function, so every repeat query is a cache hit
    // returning the same shared object.
    assert!(Rc::ptr_eq(&a1, &am.addr_info(&f)));
    assert!(Rc::ptr_eq(&p1, &am.positions(&f)));
    assert!(Rc::ptr_eq(&u1, &am.use_map(&f)));
    let stats = am.cache_stats();
    assert_eq!(stats.misses, 3, "one miss per analysis kind");
    assert_eq!(stats.hits, 3, "one hit per repeat query");
    assert_eq!(stats.invalidations, 0);
    assert_eq!(am.cache_stats_for(AnalysisKind::Addr).misses, 1);
    assert!(am.analysis_time().as_nanos() > 0, "misses are timed");
}

#[test]
fn committed_vectorization_invalidates_cached_analyses() {
    let mut f = saxpy_function();
    let mut am = AnalysisManager::new();
    let stale_positions = am.positions(&f);
    let epoch_before = f.epoch();

    // The vectorizer pass pulls its analyses from the caller's manager.
    let (cfg, tm, stats) = (VectorizerConfig::lslp(), CostModel::default(), Statistics::new());
    let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
    let mut vp = VectorizePass::default();
    let mut pm = PassManager::new(cfg.guard_policy());
    pm.run_pass(&mut vp, &mut f, &mut am, &cx).unwrap();
    assert_eq!(vp.take_report().unwrap().trees_vectorized, 1);
    assert_ne!(f.epoch(), epoch_before, "committed vectorization moves the epoch");

    // The cache must not serve the scalar-body position map for the
    // vectorized function: the epoch check forces a recompute.
    let misses_before = am.cache_stats().misses;
    let fresh_positions = am.positions(&f);
    assert!(
        !Rc::ptr_eq(&stale_positions, &fresh_positions),
        "stale scalar analysis must not survive vectorization"
    );
    assert!(am.cache_stats().misses > misses_before);
    assert!(am.cache_stats().invalidations > 0, "epoch moves invalidated the cache");
    // The fresh map describes the vectorized body exactly.
    assert_eq!(fresh_positions.len(), f.body().len());
}

#[test]
fn preserving_pass_leaves_cache_warm_across_pass_manager() {
    // A pass that mutates the function (renames a value, which moves the
    // epoch) but preserves every analysis: names feed none of them.
    struct RenamePass;
    impl Pass for RenamePass {
        fn name(&self) -> &'static str {
            "rename"
        }
        fn run(
            &mut self,
            f: &mut lslp_ir::Function,
            _am: &mut AnalysisManager,
            _cx: &PassContext,
        ) -> PassResult {
            let v = *f.body().first().expect("non-empty body");
            f.set_value_name(v, "renamed");
            PassResult { rewrites: 1, preserved: PreservedAnalyses::all() }
        }
    }

    let mut f = saxpy_function();
    let mut am = AnalysisManager::new();
    let p1 = am.positions(&f);
    let misses_before = am.cache_stats().misses;

    let cfg = VectorizerConfig::lslp();
    let tm = CostModel::default();
    let stats = Statistics::new();
    let cx = PassContext { cfg: &cfg, tm: &tm, stats: &stats };
    let mut pm = PassManager::new(GuardPolicy::new(GuardMode::Rollback));
    let n = pm.run_pass(&mut RenamePass, &mut f, &mut am, &cx).unwrap();
    assert_eq!(n, 1);

    // PreservedAnalyses::all() re-keys the cached entries to the new epoch:
    // the next query is a hit on the same shared object, not a recompute.
    let p2 = am.positions(&f);
    assert!(Rc::ptr_eq(&p1, &p2), "preserved analysis must stay cached");
    assert_eq!(am.cache_stats().misses, misses_before, "no recompute happened");
}

#[test]
fn narrow_types_widen_the_vector_factor() {
    // f32 elements fit 8 lanes into 256 bits.
    let mut src = String::from("kernel f32x8(f32* A, f32* B, i64 i) {\n");
    for o in 0..8 {
        src.push_str(&format!("    A[i+{o}] = B[i+{o}] * B[i+{o}];\n"));
    }
    src.push('}');
    let a = vectorize(&src, "LSLP");
    assert_eq!(a.reports[0].vectorize.trees_vectorized, 1);
    let text = lslp_ir::print_function(&a.module.functions[0]);
    assert!(text.contains("<8 x f32>"), "{text}");
}
