//! The `lslpc` driver logic, kept separate from `main` for testability.

use std::fmt::Write as _;

use lslp::api::{Artifact, CompileOptions, LslpError, Session};
use lslp::{vectorize_function, PipelineReport, VectorizerConfig};
use lslp_analysis::{AnalysisManager, CacheStats};
use lslp_interp::{measure_cycles, run_function_traced, Memory, Value};
use lslp_ir::{Function, Module, Opcode, ScalarType, Type};
use lslp_target::CostModel;

use crate::args::{Args, Emit};

/// Build validated [`CompileOptions`] from the parsed command line.
fn options(args: &Args) -> Result<CompileOptions, LslpError> {
    let mut b = CompileOptions::preset(&args.config);
    if let Some(t) = &args.target {
        b = b.target(t);
    }
    if let Some(mode) = &args.guard {
        b = b.guard(mode);
    }
    if let Some(strategy) = &args.packing {
        b = b.packing(strategy);
    }
    if args.paranoid {
        b = b.paranoid(true);
    }
    if !args.pipeline {
        b = b.vectorize_only();
    }
    Ok(b.build()?)
}

fn emit_dot(src_module: &Module, cfg: &VectorizerConfig, tm: &CostModel) -> String {
    let mut out = String::new();
    for f in &src_module.functions {
        let mut am = AnalysisManager::new();
        let addr = am.addr_info(f);
        let positions = am.positions(f);
        let use_map = am.use_map(f);
        for chain in lslp::seeds::collect_store_chains(f, &addr) {
            let graph = lslp::GraphBuilder::new(f, cfg, tm, &addr, &positions, &use_map)
                .build(&chain.stores);
            let cost = lslp::graph_cost(f, &graph, tm, &use_map);
            let _ = writeln!(out, "// @{} — seed chain of {} stores", f.name(), chain.len());
            out.push_str(&graph.to_dot(f, Some(&cost.per_node)));
        }
    }
    out
}

fn emit_graphs(src_module: &Module, cfg: &VectorizerConfig, tm: &CostModel) -> String {
    let mut out = String::new();
    for f in &src_module.functions {
        let _ = writeln!(out, "; @{} — SLP graphs before vectorization", f.name());
        let mut am = AnalysisManager::new();
        let addr = am.addr_info(f);
        let positions = am.positions(f);
        let use_map = am.use_map(f);
        for chain in lslp::seeds::collect_store_chains(f, &addr) {
            let graph = lslp::GraphBuilder::new(f, cfg, tm, &addr, &positions, &use_map)
                .build(&chain.stores);
            let cost = lslp::graph_cost(f, &graph, tm, &use_map);
            let _ = writeln!(out, "; seed chain of {} stores:", chain.len());
            for line in graph.dump(f).lines() {
                let _ = writeln!(out, ";   {line}");
            }
            let _ = writeln!(
                out,
                ";   total cost {} -> {}",
                cost.total,
                if cost.total < cfg.cost_threshold { "vectorize" } else { "keep scalar" }
            );
        }
    }
    out
}

fn emit_report(m: &Module, reports: &[PipelineReport]) -> String {
    let mut out = String::new();
    for (f, pr) in m.functions.iter().zip(reports) {
        let r = &pr.vectorize;
        let _ = writeln!(
            out,
            "@{}: {} attempt(s), {} vectorized, applied cost {}, {} extract(s), pass time {:?}",
            f.name(),
            r.attempts.len(),
            r.trees_vectorized,
            r.applied_cost,
            r.stats.extracts,
            r.elapsed
        );
        for a in &r.attempts {
            let _ = writeln!(
                out,
                "  seed {} VF={} cost={} nodes={} gathers={} strategy={} -> {}",
                a.seed,
                a.vf,
                a.cost,
                a.nodes,
                a.gathers,
                a.strategy,
                if a.vectorized { "vectorized" } else { "scalar" }
            );
        }
        for red in &r.reductions {
            let _ = writeln!(
                out,
                "  {} cost={} -> {}",
                red.desc,
                red.cost,
                if red.applied { "vectorized" } else { "scalar" }
            );
        }
        for inc in &r.incidents {
            let _ = writeln!(out, "  incident {inc}");
        }
        for inc in &pr.incidents {
            let _ = writeln!(out, "  incident {inc}");
        }
    }
    out
}

/// Render the `--print-pass-times` / `--stats` sections (as `;` comments,
/// so IR output stays parseable): per-function pass rows, then the
/// analysis cache once, as the session totals it is.
fn emit_observability(artifact: &Artifact, cache: CacheStats, times: bool, stats: bool) -> String {
    let mut out = String::new();
    for (f, r) in artifact.module.functions.iter().zip(&artifact.reports) {
        if times {
            let _ = writeln!(out, "; pass times @{}:", f.name());
            for t in &r.pass_timings {
                let _ = writeln!(
                    out,
                    ";   {:<10} {:>10.1?}  ({} rewrites)",
                    t.pass, t.time, t.rewrites
                );
            }
        }
        if stats {
            let _ = writeln!(out, "; statistics @{}:", f.name());
            for row in r.stats.rows() {
                let _ = writeln!(out, ";   {:>6}  {} - {}", row.value, row.pass, row.counter);
            }
        }
    }
    let _ = writeln!(out, "; session totals:");
    if times {
        // The last report read the session's manager last: its analysis
        // time is the total.
        let analysis_time = artifact.reports.last().map(|r| r.analysis_time).unwrap_or_default();
        let _ = writeln!(
            out,
            ";   {:<10} {:>10.1?}  (cache misses, included in pass times)",
            "analyses", analysis_time
        );
    }
    if stats {
        let _ = writeln!(
            out,
            ";   analysis cache: {} hit(s), {} miss(es), {} invalidation(s)",
            cache.hits, cache.misses, cache.invalidations
        );
    }
    out
}

/// Deterministically initialize arrays for `--run` (mirrors the evaluation
/// harness: pointer parameters become arrays, scalar parameters get fixed
/// values).
fn run_kernels(m: &Module, iters: usize, trace: bool, tm: &CostModel) -> Result<String, LslpError> {
    let mut out = String::new();
    for f in &m.functions {
        let mut mem = Memory::new();
        let len = 16 * (iters + 8);
        let mut args = Vec::new();
        for (k, &p) in f.params().iter().enumerate() {
            match f.ty(p) {
                Type::Scalar(ScalarType::Ptr) => {
                    let name = f.value_name(p).unwrap_or("arr").to_string();
                    // Element kind is unknown at the signature level; infer
                    // from the first typed access.
                    let elem = infer_elem(f, p);
                    let ptr = if elem.is_float() {
                        let init: Vec<f64> = (0..len)
                            .map(|j| 0.5 + ((j * 37 + k * 11) % 64) as f64 / 32.0)
                            .collect();
                        mem.alloc_f64(&name, &init)
                    } else {
                        let init: Vec<i64> = (0..len)
                            .map(|j| ((j * 2654435761 + k * 97) % 509) as i64 + 1)
                            .collect();
                        mem.alloc_i64(&name, &init)
                    };
                    args.push(ptr);
                }
                Type::Scalar(s) if s.is_float() => args.push(Value::Float(1.5)),
                _ => args.push(Value::Int(0)),
            }
        }
        let mut cycles = 0i64;
        for t in 0..iters {
            let mut iter_args = args.clone();
            for (&p, v) in f.params().iter().zip(iter_args.iter_mut()) {
                if f.ty(p) == Type::I64 {
                    *v = Value::Int(t as i64);
                }
            }
            if trace && t == 0 {
                let _ = writeln!(out, "@{} trace (iteration 0):", f.name());
                let mut lines = Vec::new();
                run_function_traced(f, &iter_args, &mut mem, |id, v| {
                    lines.push(format!("  {id} = {v}"));
                })
                .map_err(|e| LslpError::Internal(format!("@{}: {e}", f.name())))?;
                for l in lines {
                    let _ = writeln!(out, "{l}");
                }
                cycles += lslp_interp::perf::body_cycles(f, tm);
                continue;
            }
            cycles += measure_cycles(f, &iter_args, &mut mem, tm)
                .map_err(|e| LslpError::Internal(format!("@{}: {e}", f.name())))?
                .cycles;
        }
        let mut checksum = 0u64;
        for name in mem.buffer_names() {
            for &b in mem.bytes(name).unwrap() {
                checksum = checksum.wrapping_mul(1099511628211).wrapping_add(b as u64);
            }
        }
        let _ = writeln!(
            out,
            "@{}: {iters} iteration(s), {cycles} simulated cycles, memory checksum {checksum:016x}",
            f.name()
        );
    }
    Ok(out)
}

/// The element type an array parameter is accessed at (first access wins;
/// `i64` if the parameter is never dereferenced).
fn infer_elem(f: &Function, param: lslp_ir::ValueId) -> ScalarType {
    let geps: std::collections::HashSet<lslp_ir::ValueId> = f
        .iter_body()
        .filter(|(_, _, inst)| inst.op == Opcode::Gep && inst.args[0] == param)
        .map(|(_, id, _)| id)
        .collect();
    for (_, _, inst) in f.iter_body() {
        match inst.op {
            Opcode::Load if geps.contains(&inst.args[0]) => {
                if let Some(e) = inst.ty.elem() {
                    return e;
                }
            }
            Opcode::Store if geps.contains(&inst.args[1]) => {
                if let Some(e) = f.ty(inst.args[0]).elem() {
                    return e;
                }
            }
            _ => {}
        }
    }
    ScalarType::I64
}

/// Run the driver over already-loaded source text; returns what would be
/// printed to stdout.
///
/// # Errors
///
/// Returns [`LslpError`] for rejected options, compile errors, or runtime
/// failures under `--run`; `.exit_code()` gives the process exit code.
pub fn run_on_source(args: &Args, src: &str) -> Result<String, LslpError> {
    let opts = options(args)?;
    let mut session = Session::new(opts);
    let cfg = session.options().config().clone();
    let tm = session.target().clone();
    let module = lslp_frontend::compile(src).map_err(|e| LslpError::Input(e.to_string()))?;

    let mut out = String::new();
    if let Some(other) = &args.compare {
        let mut cmp_args = args.clone();
        cmp_args.config = other.clone();
        let cfg2 = options(&cmp_args)?.config().clone();
        let _ = writeln!(out, "; cost comparison {} vs {}", args.config, other);
        for f in &module.functions {
            let mut f1 = f.clone();
            let r1 = vectorize_function(&mut f1, &cfg, &tm);
            let mut f2 = f.clone();
            let r2 = vectorize_function(&mut f2, &cfg2, &tm);
            let _ = writeln!(
                out,
                ";   @{}: {} {:+} ({} trees) | {} {:+} ({} trees)",
                f.name(),
                args.config,
                r1.applied_cost,
                r1.trees_vectorized,
                other,
                r2.applied_cost,
                r2.trees_vectorized
            );
        }
        out.push('\n');
    }

    match args.emit {
        Emit::Graphs => {
            out.push_str(&emit_graphs(&module, &cfg, &tm));
            Ok(out)
        }
        Emit::Dot => {
            out.push_str(&emit_dot(&module, &cfg, &tm));
            Ok(out)
        }
        Emit::Ir | Emit::Report => {
            let artifact = session.optimize(module)?;
            if args.emit == Emit::Report {
                out.push_str(&emit_report(&artifact.module, &artifact.reports));
            } else {
                out.push_str(&artifact.ir());
            }
            if args.print_pass_times || args.stats {
                out.push('\n');
                out.push_str(&emit_observability(
                    &artifact,
                    session.cache_stats(),
                    args.print_pass_times,
                    args.stats,
                ));
            }
            if args.run {
                out.push('\n');
                out.push_str(&run_kernels(&artifact.module, args.iters, args.trace, &tm)?);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;
    use lslp::api::ErrorClass;

    const SRC: &str = "kernel k(f64* A, f64* B, i64 i) {
                           for o in 0..4 { A[i+o] = B[i+o] * B[i+o]; }
                       }";

    fn run(extra: &[&str]) -> String {
        let mut argv: Vec<String> = vec!["-".into()];
        argv.extend(extra.iter().map(|s| s.to_string()));
        let a = args::parse(&argv).unwrap();
        run_on_source(&a, SRC).unwrap()
    }

    #[test]
    fn emits_vectorized_ir_by_default() {
        let out = run(&[]);
        assert!(out.contains("<4 x f64>"), "{out}");
    }

    #[test]
    fn o3_emits_scalar_ir() {
        let out = run(&["--config", "O3"]);
        assert!(!out.contains('<'), "{out}");
        assert!(out.contains("fmul f64"), "{out}");
    }

    #[test]
    fn report_mode_shows_attempts() {
        let out = run(&["--emit", "report"]);
        assert!(out.contains("applied cost"), "{out}");
        assert!(out.contains("VF=4"), "{out}");
    }

    #[test]
    fn graphs_mode_dumps_nodes() {
        let out = run(&["--emit", "graphs"]);
        assert!(out.contains("seed chain of 4 stores"), "{out}");
        assert!(out.contains("store ["), "{out}");
        assert!(out.contains("-> vectorize"), "{out}");
    }

    #[test]
    fn dot_mode_emits_graphviz() {
        let out = run(&["--emit", "dot"]);
        assert!(out.contains("digraph slp {"), "{out}");
        assert!(out.contains("->"), "{out}");
    }

    #[test]
    fn compare_mode_shows_both_configs() {
        let out = run(&["--compare", "SLP"]);
        assert!(out.contains("cost comparison LSLP vs SLP"), "{out}");
    }

    #[test]
    fn run_mode_executes_and_checksums() {
        let vec_out = run(&["--run", "--iters", "4"]);
        assert!(vec_out.contains("simulated cycles"), "{vec_out}");
        // The same program under O3 must produce the same checksum.
        let scalar_out = run(&["--run", "--iters", "4", "--config", "O3"]);
        let checksum = |s: &str| {
            s.lines()
                .find(|l| l.contains("checksum"))
                .and_then(|l| l.split_whitespace().last().map(str::to_string))
                .unwrap()
        };
        assert_eq!(checksum(&vec_out), checksum(&scalar_out), "results must agree");
    }

    #[test]
    fn trace_mode_prints_values() {
        let out = run(&["--run", "--iters", "2", "--trace"]);
        assert!(out.contains("trace (iteration 0):"), "{out}");
        assert!(out.contains(" = <"), "vector values traced:\n{out}");
        assert!(out.contains("simulated cycles"), "{out}");
    }

    #[test]
    fn pipeline_flag_runs_scalar_passes() {
        let out = run(&["--pipeline"]);
        assert!(out.contains("<4 x f64>"), "{out}");
    }

    #[test]
    fn guard_modes_accepted_end_to_end() {
        // A well-formed kernel raises no incidents, so every guard mode
        // (and paranoid differential execution) produces the same IR.
        let baseline = run(&[]);
        for extra in [
            &["--guard", "off"][..],
            &["--guard", "rollback"],
            &["--guard", "strict"],
            &["--guard", "rollback", "--paranoid"],
        ] {
            assert_eq!(run(extra), baseline, "guard flags {extra:?} changed the output");
        }
    }

    #[test]
    fn packing_strategies_accepted_end_to_end() {
        // A clean 4-lane kernel has one obviously-best packing, so both
        // strategies land on the same IR (global ties and defers to
        // greedy, so its attempts are greedy-tagged too).
        let baseline = run(&[]);
        assert_eq!(run(&["--packing", "greedy"]), baseline);
        assert_eq!(run(&["--packing", "global"]), baseline);
        let report = run(&["--emit", "report"]);
        assert!(report.contains("strategy=greedy"), "{report}");
    }

    #[test]
    fn global_packing_wins_the_greedy_trap_end_to_end() {
        // Greedy pairs lanes 0–1 (dragging in the `x` gather) and locks
        // out the clean 1–2 pair; the global planner takes 1–2 instead.
        const TRAP: &str = "kernel trap(i64* A, i64* B, i64* C, i64 x, i64 y, i64 i) {
                                A[i+0] = B[i+0] + x;
                                A[i+1] = B[i+1] + C[i+1];
                                A[i+2] = B[i+2] + C[i+2];
                                A[i+3] = y;
                            }";
        let run_trap = |extra: &[&str]| {
            let mut argv: Vec<String> = vec!["-".into()];
            argv.extend(extra.iter().map(|s| s.to_string()));
            run_on_source(&args::parse(&argv).unwrap(), TRAP).unwrap()
        };
        let report = run_trap(&["--packing", "global", "--emit", "report"]);
        assert!(report.contains("strategy=global -> vectorized"), "{report}");
        let greedy = run_trap(&["--emit", "report"]);
        assert!(!greedy.contains("strategy=global"), "{greedy}");
    }

    #[test]
    fn report_mode_is_incident_free_on_clean_input() {
        let out = run(&["--emit", "report", "--pipeline", "--paranoid"]);
        assert!(!out.contains("incident"), "{out}");
    }

    #[test]
    fn pass_times_flag_prints_timers() {
        let out = run(&["--pipeline", "--print-pass-times"]);
        assert!(out.contains("; pass times @k:"), "{out}");
        for pass in ["simplify", "fold", "cse", "dce", "vectorize", "analyses"] {
            assert!(out.contains(pass), "missing {pass} in:\n{out}");
        }
        assert!(out.contains("<4 x f64>"), "IR still printed:\n{out}");
    }

    #[test]
    fn stats_flag_prints_counters_and_cache() {
        let out = run(&["--pipeline", "--stats"]);
        assert!(out.contains("; statistics @k:"), "{out}");
        assert!(out.contains("vectorize - trees-vectorized"), "{out}");
        assert!(out.contains("analysis cache:"), "{out}");
        assert!(out.contains("hit(s)"), "{out}");
    }

    #[test]
    fn observability_works_without_pipeline() {
        // The default (vectorize-only) path runs under the pass manager
        // too, so the flags work without --pipeline.
        let out = run(&["--print-pass-times", "--stats"]);
        assert!(out.contains("; pass times @k:"), "{out}");
        assert!(out.contains("vectorize"), "{out}");
        assert!(out.contains("analysis cache:"), "{out}");
    }

    #[test]
    fn analysis_cache_prints_once_as_a_session_total() {
        // Two identical kernels share the session's analysis manager, so
        // the counters are cumulative: printed once per compile, and
        // exactly twice what one kernel alone costs — in both modes. The
        // guard's last commit on `k1` builds no maps just to verify, so
        // `k2` starts from an empty manager, as `k1` did.
        let two = format!(
            "{}\n{}",
            SRC.replace("kernel k(", "kernel k1("),
            SRC.replace("kernel k(", "kernel k2(")
        );
        let cache_line = |out: &str| {
            assert_eq!(out.matches("analysis cache:").count(), 1, "{out}");
            let at = out.find("; session totals:").expect("session totals block");
            let line = out[at..].lines().find(|l| l.contains("analysis cache:")).unwrap();
            let counts: Vec<u64> = line
                .split_whitespace()
                .filter_map(|w| w.trim_end_matches(',').parse().ok())
                .collect();
            assert_eq!(counts.len(), 3, "{line}");
            counts
        };
        for mode in [&["-", "--stats"][..], &["-", "--stats", "--pipeline"]] {
            let a = args::parse(&mode.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap();
            let one = cache_line(&run_on_source(&a, SRC).unwrap());
            let both = run_on_source(&a, &two).unwrap();
            assert!(both.contains("; statistics @k1:") && both.contains("; statistics @k2:"));
            let expected = vec![2 * one[0], 2 * one[1], 2 * one[2]];
            assert_eq!(cache_line(&both), expected, "{mode:?}:\n{both}");
            assert!(one[1] > 0, "analyses are computed at least once: {one:?}");
        }
    }

    #[test]
    fn unknown_config_is_reported() {
        let a = args::parse(&["-".to_string(), "--config".into(), "GCC".into()]).unwrap();
        let err = run_on_source(&a, SRC).unwrap_err();
        assert!(err.to_string().contains("unknown configuration"), "{err}");
    }

    #[test]
    fn compile_errors_propagate() {
        let a = args::parse(&["-".to_string()]).unwrap();
        let err = run_on_source(&a, "kernel broken(").unwrap_err();
        assert!(err.to_string().contains("slc error"), "{err}");
    }

    #[test]
    fn error_kinds_separate_user_from_compiler() {
        // Malformed input is the user's fault: exit 3 territory.
        let a = args::parse(&["-".to_string()]).unwrap();
        let err = run_on_source(&a, "kernel broken(").unwrap_err();
        assert_eq!(err.class(), ErrorClass::Input);
        assert_eq!(err.exit_code(), 3);
        // An unknown preset is a bad invocation: exit 2 territory.
        let a = args::parse(&["-".to_string(), "--config".into(), "GCC".into()]).unwrap();
        let err = run_on_source(&a, SRC).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Usage);
        assert_eq!(err.exit_code(), 2);
        let a = args::parse(&["-".to_string(), "--guard".into(), "rollback".into()]).unwrap();
        assert!(run_on_source(&a, SRC).is_ok());
    }
}
