//! The in-process compile workloads, `suite` and `gen_large`.
//!
//! One thread compiles the workload's functions in a closed loop, in a
//! seeded order, until the run's time is up: `suite` from SLC source
//! (`lslp_frontend::compile` → `Session::optimize` → `print_module`),
//! `gen_large` from prebuilt IR (`Session::optimize` → `print_module`).
//! Every op's IR text must equal the first compile of the same function,
//! and each function's text is parsed back and executed against its
//! O3-pipeline reference after the window. Between ops the thread runs the
//! reference task of [`crate::pace`], and every time is reported scaled to
//! nominal host speed.

use std::time::{Duration, Instant};

use lslp::{CompileOptions, LslpError, PipelineReport, Sabotage, Session};
use lslp_ir::{Function, Module};
use lslp_kernels::{generate, ElemKind, GenConfig};
use lslp_target::CostModel;

use crate::layers::{self, WireItem};
use crate::oracle::{self, ExecSpec, Outcome, GENERATED_TOLERANCE, KERNEL_TOLERANCE};
use crate::pace::Pace;
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{geomean, median, peak_rss_mb, Rng};
use crate::{Config, Workload, SETUP_REPS, TARGET};

/// Where a function comes from.
pub enum Source {
    /// SLC source, compiled by the frontend inside the timed op.
    Slc(String),
    /// A prebuilt IR function (cloned outside the timed op).
    Ir(Box<Function>),
}

impl Source {
    /// The function as a module: the frontend's output, or a clone.
    fn module(&self) -> Result<Module, String> {
        match self {
            Source::Slc(src) => lslp_frontend::compile(src).map_err(|e| e.to_string()),
            Source::Ir(f) => Ok(Module { functions: vec![(**f).clone()] }),
        }
    }

    /// The text a client would send for this function.
    fn text(&self) -> String {
        match self {
            Source::Slc(src) => src.clone(),
            Source::Ir(f) => lslp_ir::print_function(f),
        }
    }
}

/// One workload function and how to execute it.
pub struct Input {
    /// The function's source.
    pub source: Source,
    /// How the oracle executes it.
    pub spec: ExecSpec,
}

/// The 16 kernels of `suite()` and `extended_kernels()`, each executed for
/// its default simulation length on memory seeded from `seed`.
pub fn suite_inputs(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, 1);
    lslp_kernels::suite()
        .into_iter()
        .chain(lslp_kernels::extended_kernels())
        .map(|k| Input {
            source: Source::Slc(k.src.to_string()),
            spec: ExecSpec {
                float: k.elem == ElemKind::F64,
                len: k.array_len(k.default_iters),
                invocations: (0..k.default_iters as i64).map(|t| t * k.i_step).collect(),
                mem_seed: rng.next_u64(),
                tolerance: KERNEL_TOLERANCE,
            },
        })
        .collect()
}

/// Store-group counts of the `gen_large` functions: one function for each
/// count from 8 to 32.
const GEN_GROUPS: std::ops::RangeInclusive<usize> = 8..=32;
/// Target IR instructions per store group (the generator's mean at
/// depth 4), so functions run from about 900 to 3500 instructions.
const INSTS_PER_GROUP: usize = 110;
/// Functions drawn per group count; the one closest to the target size is
/// kept.
const GEN_CANDIDATES: usize = 8;

/// Seeded generated functions: 4-lane store groups of depth-4 expression
/// trees with commutative operands swapped across lanes half the time,
/// about half of them `i64` and half `f64`.
pub fn gen_large_inputs(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, 2);
    let mut ints: Vec<bool> = GEN_GROUPS.map(|g| g % 2 == 0).collect();
    rng.shuffle(&mut ints);
    GEN_GROUPS
        .zip(ints)
        .map(|(groups, int)| {
            // Every seed gets the same size profile; only shapes vary, so
            // compile times differ little from seed to seed.
            let target = INSTS_PER_GROUP * groups;
            let p = (0..GEN_CANDIDATES)
                .map(|_| {
                    generate(&GenConfig {
                        seed: rng.next_u64(),
                        groups,
                        lanes: 4,
                        depth: 4,
                        int,
                        swap_prob: 0.5,
                        arrays: 3,
                    })
                })
                .min_by_key(|p| p.function.body_len().abs_diff(target))
                .expect("GEN_CANDIDATES > 0");
            Input {
                source: Source::Ir(Box::new(p.function)),
                spec: ExecSpec {
                    float: !int,
                    len: p.min_len,
                    invocations: vec![0],
                    mem_seed: rng.next_u64(),
                    tolerance: GENERATED_TOLERANCE,
                },
            }
        })
        .collect()
}

/// The options every workload compiles under: the paper's LSLP on the
/// paper's target, and no time budget, so compile speed cannot change an
/// output.
pub fn lslp_options(sabotage: Sabotage) -> CompileOptions {
    CompileOptions::preset("LSLP")
        .target(TARGET)
        .sabotage(sabotage)
        .build()
        .expect("LSLP on a registry target is a valid combination")
}

/// The O3-pipeline reference options.
pub fn o3_options() -> CompileOptions {
    CompileOptions::preset("O3").target(TARGET).build().expect("O3 is a valid preset")
}

/// A workload function after set-up.
pub struct Prepared {
    /// The input.
    pub input: Input,
    /// Instructions of the input function (the light/heavy split key).
    pub insts: usize,
    /// The O3-pipeline output: the vectorizer's input, and the reference.
    pub o3: Function,
    /// The reference execution.
    pub reference: Outcome,
}

/// Compile `input` under O3 and execute the result: the reference every
/// LSLP output is checked against.
///
/// # Errors
///
/// A message when the input does not compile or execute.
pub fn prepare(
    input: Input,
    o3: &mut Session,
    tm: &CostModel,
    tr: &mut Tracer,
    op: u64,
) -> Result<Prepared, String> {
    let module = input.source.module()?;
    let insts = module.functions.iter().map(Function::body_len).sum();
    let f = o3
        .optimize(module)
        .map_err(|e| e.to_string())?
        .module
        .functions
        .into_iter()
        .next()
        .ok_or("the input has no function")?;
    let s = tr.begin("interp.exec", op);
    let reference = oracle::execute(&f, &input.spec, tm);
    tr.end(s);
    Ok(Prepared { input, insts, o3: f, reference: reference? })
}

/// Execute an output's IR text against its reference; the simulated
/// speedup (reference cycles ÷ output cycles) and the output's
/// instruction count on success.
///
/// # Errors
///
/// Why the output is wrong: unparsable, faulting, or different memory.
pub fn check_output(
    text: &str,
    p: &Prepared,
    tm: &CostModel,
    tr: &mut Tracer,
) -> Result<(f64, usize), String> {
    let m = lslp_ir::parse_module(text).map_err(|e| format!("unparsable IR: {e}"))?;
    let f = m.functions.first().ok_or("no function in the output")?;
    let s = tr.begin("interp.exec", 0);
    let got = oracle::execute(f, &p.input.spec, tm);
    tr.end(s);
    let got = got?;
    oracle::same_memory(&p.reference, &got, &p.input.spec)?;
    Ok((p.reference.cycles as f64 / got.cycles.max(1) as f64, f.body_len()))
}

/// Static span name of a pass reported in `PipelineReport::pass_timings`.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "if-convert" => "core.pass.if-convert",
        "unroll" => "core.pass.unroll",
        "simplify" => "core.pass.simplify",
        "fold" => "core.pass.fold",
        "cse" => "core.pass.cse",
        "dce" => "core.pass.dce",
        "vectorize" => "core.pass.vectorize",
        _ => "core.pass.other",
    }
}

/// One compile op: `module` (prebuilt IR) or `source` (compiled by the
/// frontend here) in, IR text and the function's pipeline report out.
///
/// # Errors
///
/// The frontend's or the pipeline's error.
pub fn compile_op(
    source: &Source,
    prebuilt: Option<Module>,
    session: &mut Session,
    tr: &mut Tracer,
    op: u64,
) -> Result<(String, PipelineReport), LslpError> {
    let root = tr.begin("compile", op);
    let module = match (prebuilt, source) {
        (Some(m), _) => Ok(m),
        (None, Source::Slc(src)) => {
            let s = tr.begin("frontend.compile", op);
            let m = lslp_frontend::compile(src).map_err(|e| LslpError::Input(e.to_string()));
            tr.end(s);
            m
        }
        (None, Source::Ir(_)) => Err(LslpError::Usage("IR inputs are passed prebuilt".into())),
    };
    let optimized = module.and_then(|m| {
        let s = tr.begin("core.optimize", op);
        let start = Instant::now();
        let artifact = session.optimize(m);
        if let Ok(a) = &artifact {
            let mut at = start;
            for t in a.reports.iter().flat_map(|r| &r.pass_timings) {
                tr.record(pass_span(t.pass), op, at, t.time);
                at += t.time;
            }
        }
        tr.end(s);
        artifact
    });
    let result = optimized.map(|mut a| {
        let s = tr.begin("ir.print", op);
        let text = lslp_ir::print_module(&a.module);
        tr.end(s);
        (text, a.reports.pop().unwrap_or_default())
    });
    tr.end(root);
    result
}

/// The IR module to pass prebuilt, cloned outside the timed op.
fn prebuilt(source: &Source) -> Option<Module> {
    match source {
        Source::Ir(f) => Some(Module { functions: vec![(**f).clone()] }),
        Source::Slc(_) => None,
    }
}

/// Deterministic vectorizer counts summed over first compiles.
#[derive(Default)]
pub struct Counts {
    attempts: f64,
    trees: f64,
    nodes: f64,
    gathers: f64,
    applied_cost: f64,
    incidents: f64,
}

impl Counts {
    /// Add one function's pipeline report.
    pub fn add(&mut self, r: &PipelineReport) {
        let v = &r.vectorize;
        self.attempts += v.attempts.len() as f64;
        self.trees += v.trees_vectorized as f64;
        self.nodes += v.attempts.iter().map(|a| a.nodes).sum::<usize>() as f64;
        self.gathers += v.attempts.iter().map(|a| a.gathers).sum::<usize>() as f64;
        self.applied_cost += v.applied_cost as f64;
        self.incidents += (r.incidents.len() + v.incidents.len()) as f64;
    }

    /// Report the counts as per-function means over `functions`
    /// (incidents as a total).
    pub fn report(&self, report: &mut Report, functions: usize) {
        let per = functions.max(1) as f64;
        report.set("vec.attempts", self.attempts / per);
        report.set("vec.trees", self.trees / per);
        report.set("vec.useful_ratio", self.trees / self.attempts.max(1.0));
        report.set("vec.graph_nodes", self.nodes / per);
        report.set("vec.gathers", self.gathers / per);
        report.set("vec.applied_cost", self.applied_cost / per);
        report.set("guard.incidents", self.incidents);
    }
}

/// Build the workload's inputs and references `SETUP_REPS` times; the last
/// set and the median set-up time in seconds, scaled to nominal host speed.
fn setup(cfg: &Config, tm: &CostModel, tr: &mut Tracer) -> Result<(Vec<Prepared>, f64), String> {
    let mut pace = Pace::default();
    let mut times = Vec::new();
    let mut prepared: Option<Vec<Prepared>> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let inputs = match cfg.workload {
            Workload::Suite => suite_inputs(cfg.seed),
            _ => gen_large_inputs(cfg.seed),
        };
        let mut o3 = Session::new(o3_options());
        let mut busy = start.elapsed();
        let mut rep = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.into_iter().enumerate() {
            let t0 = Instant::now();
            rep.push(prepare(input, &mut o3, tm, tr, i as u64)?);
            let took = t0.elapsed();
            busy += took;
            pace.after(took);
        }
        times.push(busy.as_secs_f64());
        if let Some(prev) = &prepared {
            if prev.iter().zip(&rep).any(|(a, b)| a.reference != b.reference) {
                return Err("set-up is not deterministic: references differ".into());
            }
        }
        prepared = Some(rep);
    }
    Ok((prepared.expect("SETUP_REPS > 0"), pace.scaled(median(&mut times))))
}

/// Run `suite` or `gen_large`.
///
/// # Errors
///
/// A message when set-up fails (an input that does not compile or run
/// under O3); compile failures inside the window count as failed ops.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let tm = lslp_target::TargetSpec::parse(TARGET).expect("registry target");
    let mut tr = Tracer::new(cfg.trace);
    let (prepared, setup_s) = setup(cfg, &tm, &mut tr)?;
    let n = prepared.len();
    let mut report = Report::default();

    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(cfg.seed, 3).shuffle(&mut order);
    let mut session = Session::new(lslp_options(cfg.sabotage));

    // Warm-up: each function's first compile fixes the text every later
    // compile must reproduce, and its report gives the per-layer counts.
    let mut first: Vec<Option<String>> = vec![None; n];
    let mut counts = Counts::default();
    let mut quiet = Tracer::new(false);
    // The session's analysis time is cumulative; the window counts deltas.
    let mut last_analysis = Duration::ZERO;
    for &idx in &order {
        let source = &prepared[idx].input.source;
        match compile_op(source, prebuilt(source), &mut session, &mut quiet, 0) {
            Ok((text, r)) => {
                counts.add(&r);
                last_analysis = r.analysis_time;
                first[idx] = Some(text);
            }
            Err(e) => report.note(format!("function {idx}: {e}")),
        }
    }

    // Light functions are those below the workload's median size.
    let mut sizes: Vec<f64> = prepared.iter().map(|p| p.insts as f64).collect();
    let split = median(&mut sizes);
    let heavy: Vec<bool> = prepared.iter().map(|p| p.insts as f64 >= split).collect();

    // The timed window: compile ops interleaved with the reference task
    // that gauges the host's speed. Only sums are kept, so the run's peak
    // memory does not depend on how many ops fit in the window.
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut pace = Pace::default();
    let mut ops = 0usize;
    let mut busy = Duration::ZERO;
    let mut class_s = [0f64; 2];
    let mut class_ops = [0u64; 2];
    let mut ops_of = vec![0u64; n];
    let mut bad_of = vec![0u64; n];
    let mut analysis_ns = 0u128;
    let cache_before = session.cache_stats();
    let start = Instant::now();
    'window: loop {
        for &idx in &order {
            let source = &prepared[idx].input.source;
            let module = prebuilt(source);
            let op = ops as u64;
            let t0 = Instant::now();
            let result = compile_op(source, module, &mut session, &mut tr, op);
            let took = t0.elapsed();
            pace.after(took);
            busy += took;
            ops += 1;
            class_s[usize::from(heavy[idx])] += took.as_secs_f64();
            class_ops[usize::from(heavy[idx])] += 1;
            ops_of[idx] += 1;
            match result {
                Ok((text, r)) => {
                    analysis_ns += r.analysis_time.saturating_sub(last_analysis).as_nanos();
                    last_analysis = r.analysis_time;
                    if first[idx].as_deref() != Some(text.as_str()) {
                        bad_of[idx] += 1;
                        report
                            .note(format!("function {idx}: output differs from its first compile"));
                    }
                }
                Err(e) => {
                    bad_of[idx] += 1;
                    report.note(format!("function {idx}: {e}"));
                }
            }
            if start.elapsed() >= window {
                break 'window;
            }
        }
    }
    let cache_after = session.cache_stats();

    // The output oracle: a wrong function fails every op that produced it.
    let mut speedups = Vec::with_capacity(n);
    let mut insts_out = 0usize;
    for (idx, p) in prepared.iter().enumerate() {
        let verdict = match &first[idx] {
            Some(text) => check_output(text, p, &tm, &mut quiet),
            None => Err("did not compile".to_string()),
        };
        match verdict {
            Ok((speedup, insts)) => {
                speedups.push(speedup);
                insts_out += insts;
                report.failed += bad_of[idx];
            }
            Err(why) => {
                report.note(format!("function {idx}: {why}"));
                report.failed += ops_of[idx];
            }
        }
    }
    report.attempted = ops as u64;

    // Times are scaled to nominal host speed; `busy` excludes the
    // reference task.
    let throughput = ops as f64 / pace.scaled(busy.as_secs_f64());
    let class_ms = |c: usize| pace.scaled(class_s[c]) * 1e3 / class_ops[c].max(1) as f64;
    report.set("throughput_per_s", throughput);
    report.set("light_ms_mean", class_ms(0));
    report.set("heavy_ms_mean", class_ms(1));
    report.set("sim_speedup", geomean(&speedups));
    report.set("ok_frac", 1.0 - report.failed as f64 / ops.max(1) as f64);
    report.set("peak_rss_mb", peak_rss_mb(std::process::id()).unwrap_or(0.0));
    report.set("setup_s", setup_s);

    if cfg.trace {
        counts.report(&mut report, n);
        report.set("ir.insts_out", insts_out as f64 / n as f64);
        let hits = (cache_after.hits - cache_before.hits) as f64;
        let misses = (cache_after.misses - cache_before.misses) as f64;
        report.set("analysis.hit_ratio", hits / (hits + misses).max(1.0));
        report.set("analysis.miss_us", analysis_ns as f64 / 1e3 / ops.max(1) as f64);
        report.set("trace.throughput_per_s", throughput);

        let lslp = lslp_options(Sabotage::None);
        for (idx, p) in prepared.iter().enumerate() {
            layers::replay_vectorizer(&p.o3, lslp.config(), &tm, &mut tr, idx as u64);
        }
        let items: Vec<WireItem> = prepared
            .iter()
            .zip(&first)
            .map(|(p, text)| {
                let payload = text.as_deref().unwrap_or("");
                WireItem::new(&p.input.source.text(), payload, crate::TIMEOUT_MS)
            })
            .collect();
        let sequence: Vec<usize> = (0..ops).map(|k| order[k % n]).collect();
        layers::drive_wire(&items, &sequence, &mut tr);
        crate::report_layers(
            &mut report,
            &tr,
            crate::LayerCounts {
                ops,
                replayed: n,
                executions: n * SETUP_REPS,
                wire_ops: sequence.len(),
            },
        );
        crate::write_trace(cfg, &tr);
    }
    Ok(report)
}
