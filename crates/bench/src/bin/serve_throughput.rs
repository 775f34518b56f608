//! Load generator for `lslpd`: replays the kernel suite (plus heavyweight
//! synthetic kernels) against the compile service at configurable
//! concurrency and reports a throughput/latency table.
//!
//! Two passes are driven over the same request mix: a **cold** pass that
//! populates the result cache and a **warm** pass that should be served
//! almost entirely from it. For every response the payload is checked
//! byte-for-byte against a locally computed expectation, so dropped *and*
//! corrupted responses are both counted (and fail the run).
//!
//! Clients drive the server through [`Client::compile_with_retry`]: a
//! wall-clock deadline, jittered exponential backoff on `overload`, and
//! reconnect-on-broken-pipe — so the table also reports attempts,
//! reconnects, and gave-up counts. That makes the generator usable
//! against a chaos-mode daemon (`--tolerate-faults`): injected drops and
//! worker panics must end in a retried success or a typed ERR, never a
//! hang or a corrupted payload.
//!
//! ```text
//! cargo run --release -p lslp-bench --bin serve_throughput -- [options]
//!   --addr HOST:PORT    drive an already-running lslpd (default: spawn an
//!                       in-process server on a free port)
//!   --concurrency N     client threads (default 8)
//!   --repeat N          how often each distinct request appears per pass
//!                       (default 3)
//!   --requests N        fixed request count per pass (overrides --repeat)
//!   --workers N         worker threads for the in-process server
//!   --cache-dir DIR     persistent cache dir for the in-process server
//!   --chaos SPEC        seeded fault injection for the in-process server
//!                       (implies --tolerate-faults)
//!   --restart           after the cold pass, drain + restart the
//!                       in-process server on the same --cache-dir and
//!                       measure the warm-restart hit rate
//!   --tolerate-faults   the target injects faults: typed ERR responses
//!                       are tolerated (counted, not fatal) and the
//!                       warm-faster-than-cold assertion is waived
//!   --expect-restarts   after the run, assert STATS shows at least one
//!                       watchdog worker respawn
//!   --no-shutdown       leave the target running on exit (for kill -9
//!                       crash tests driven from CI)
//!   --pipeline N        pipelined-vs-serial comparison: prime the cache,
//!                       drive one serial lockstep pass and one pooled
//!                       pipelined pass (N tagged requests in flight per
//!                       connection), print both and the speedup; with
//!                       depth >= 8, pool >= 4, and no fault injection the
//!                       pipelined pass must be >= 3x serial throughput
//!   --pool N            connection-pool size for --pipeline (default 4)
//!   --smoke             CI mode: fire N concurrent requests (default 32,
//!                       including one malformed and one timeout-inducing),
//!                       assert every one gets a response, then SHUTDOWN;
//!                       with --pipeline it also drives a pooled pipelined
//!                       burst and asserts every tagged request is answered
//!   --warm-check        probe mode: assert the target recovered warm
//!                       entries from its cache dir (persist warm > 0) and
//!                       serves a suite kernel; used after a kill -9
//!                       restart
//! ```
//!
//! Exit status is nonzero if any response is dropped, corrupted, or an
//! unexpected error, or (in the full run) if the warm pass is not faster
//! than the cold pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use lslp::{CompileOptions, Session};
use lslp_bench::format_table;
use lslp_server::chaos::ChaosConfig;
use lslp_server::metrics::percentiles;
use lslp_server::protocol::{CompileRequest, ErrorKind};
use lslp_server::{Client, Pool, PoolConfig, RetryOutcome, RetryPolicy, Server, ServerConfig};

/// Generous per-request budget: large enough that the guard's deadline
/// never fires on a healthy run, so server output is byte-identical to the
/// local expectation.
const AMPLE_BUDGET_MS: u64 = 60_000;

fn main() {
    let opts = Opts::parse();
    let ok = if opts.warm_check {
        run_warm_check(&opts)
    } else if opts.smoke {
        run_smoke(&opts)
    } else if opts.pipeline.is_some() {
        run_pipeline_compare(&opts)
    } else {
        run_load(&opts)
    };
    std::process::exit(if ok { 0 } else { 1 });
}

struct Opts {
    addr: Option<String>,
    concurrency: usize,
    repeat: usize,
    requests: Option<usize>,
    workers: Option<usize>,
    cache_dir: Option<String>,
    chaos: Option<ChaosConfig>,
    restart: bool,
    tolerate_faults: bool,
    expect_restarts: bool,
    no_shutdown: bool,
    smoke: bool,
    warm_check: bool,
    pipeline: Option<usize>,
    pool: usize,
}

impl Opts {
    fn parse() -> Opts {
        let mut opts = Opts {
            addr: None,
            concurrency: 8,
            repeat: 3,
            requests: None,
            workers: None,
            cache_dir: None,
            chaos: None,
            restart: false,
            tolerate_faults: false,
            expect_restarts: false,
            no_shutdown: false,
            smoke: false,
            warm_check: false,
            pipeline: None,
            pool: 4,
        };
        fn num(argv: &mut impl Iterator<Item = String>, name: &str) -> usize {
            argv.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} requires a number"))
        }
        let mut argv = std::env::args().skip(1);
        while let Some(a) = argv.next() {
            match a.as_str() {
                "--addr" => opts.addr = Some(argv.next().expect("--addr requires HOST:PORT")),
                "--concurrency" => opts.concurrency = num(&mut argv, "--concurrency").max(1),
                "--repeat" => opts.repeat = num(&mut argv, "--repeat").max(1),
                "--requests" => opts.requests = Some(num(&mut argv, "--requests").max(1)),
                "--workers" => opts.workers = Some(num(&mut argv, "--workers").max(1)),
                "--cache-dir" => {
                    opts.cache_dir = Some(argv.next().expect("--cache-dir requires a path"))
                }
                "--chaos" => {
                    let spec = argv.next().expect("--chaos requires a spec");
                    match ChaosConfig::parse(&spec) {
                        Ok(c) => opts.chaos = Some(c),
                        Err(e) => {
                            eprintln!("serve_throughput: {e}");
                            std::process::exit(2);
                        }
                    }
                }
                "--restart" => opts.restart = true,
                "--tolerate-faults" => opts.tolerate_faults = true,
                "--expect-restarts" => opts.expect_restarts = true,
                "--no-shutdown" => opts.no_shutdown = true,
                "--smoke" => opts.smoke = true,
                "--warm-check" => opts.warm_check = true,
                "--pipeline" => opts.pipeline = Some(num(&mut argv, "--pipeline").max(1)),
                "--pool" => opts.pool = num(&mut argv, "--pool").max(1),
                other => {
                    eprintln!("serve_throughput: unknown option `{other}`");
                    std::process::exit(2);
                }
            }
        }
        if opts.chaos.is_some() {
            opts.tolerate_faults = true;
        }
        if opts.restart && opts.addr.is_some() {
            eprintln!("serve_throughput: --restart only works with an in-process server");
            std::process::exit(2);
        }
        opts
    }

    /// The retry behavior every driver thread uses: deterministic jitter
    /// (seeded per thread), a finite budget, and a generous deadline so a
    /// heavyweight cold compile under contention is never misread as a
    /// hang.
    fn policy(&self, thread: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            deadline: Some(Duration::from_secs(120)),
            seed: 0x10ad_9e4e_u64.wrapping_add(thread),
        }
    }
}

fn server_config(opts: &Opts) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    if let Some(w) = opts.workers {
        cfg.workers = w;
    }
    cfg.cache_dir = opts.cache_dir.clone();
    cfg.chaos = opts.chaos.clone();
    if let Some(depth) = opts.pipeline {
        // Size the in-process server for the offered load, exactly as an
        // operator would via --queue-cap/--pipeline-depth: a queue smaller
        // than pool x depth turns the whole pipelined pass into
        // overload-and-backoff.
        cfg.pipeline_depth = cfg.pipeline_depth.max(depth);
        cfg.queue_capacity = cfg.queue_capacity.max(2 * depth * opts.pool);
    }
    cfg
}

/// Connect to `--addr`, or spawn an in-process server and return its join
/// handle so a clean drain can be asserted.
fn connect_target(opts: &Opts) -> (String, Option<std::thread::JoinHandle<std::io::Result<()>>>) {
    match &opts.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let (addr, handle) =
                Server::spawn(server_config(opts)).expect("spawn in-process server");
            (addr.to_string(), Some(handle))
        }
    }
}

/// One distinct request plus the payload the server must return for it.
struct Expected {
    name: String,
    req: CompileRequest,
    payload: String,
}

/// A synthetic kernel with `groups` adjacent store groups of width 4 and a
/// deep commutative chain per lane — heavy enough that a cache hit is
/// measurably cheaper than a recompile.
fn big_kernel(name: &str, groups: usize) -> String {
    let mut src = format!("kernel {name}(f64* A, f64* B, i64 i) {{\n");
    for g in 0..groups {
        for l in 0..4 {
            let idx = g * 4 + l;
            src.push_str(&format!(
                "  A[i+{idx}] = (B[i+{idx}] * B[i+{idx}] + {g}.0) * B[i+{idx}] + B[i+{}];\n",
                (idx + 1) % (groups * 4)
            ));
        }
    }
    src.push('}');
    src
}

/// The request mix: every suite kernel plus four heavyweight synthetics,
/// each with its locally computed expected payload.
fn build_expected() -> Vec<Expected> {
    let mut sources: Vec<(String, String)> = lslp_kernels::suite()
        .into_iter()
        .map(|k| (k.name.to_string(), k.src.to_string()))
        .collect();
    for groups in [16usize, 32, 48, 64] {
        let name = format!("synth{groups}");
        sources.push((name.clone(), big_kernel(&name, groups)));
    }
    expected_for(sources)
}

/// Compact request mix for the pipelined-vs-serial comparison. Pipelining
/// amortizes per-request transport overhead (syscalls, scheduler
/// round-trips); the suite's synthetics move tens of kilobytes per
/// response, which turns either mode into a payload-bandwidth benchmark
/// and masks that effect entirely. The probe kernels are distinct (no
/// accidental coalescing) but small, so the comparison measures request
/// turnaround, not memcpy.
fn build_probe_expected(count: usize) -> Vec<Expected> {
    let sources = (0..count)
        .map(|i| {
            let name = format!("probe{i}");
            let mut src = format!("kernel {name}(f64* A, f64* B, i64 i) {{\n");
            for l in 0..4 {
                src.push_str(&format!("  A[i+{l}] = B[i+{l}] * B[i+{l}] + {i}.0;\n"));
            }
            src.push('}');
            (name, src)
        })
        .collect();
    expected_for(sources)
}

fn expected_for(sources: Vec<(String, String)>) -> Vec<Expected> {
    // The daemon's defaults for a request carrying only `timeout-ms=`.
    let opts = CompileOptions::preset("LSLP")
        .time_budget_ms(AMPLE_BUDGET_MS)
        .build()
        .expect("LSLP preset");
    let mut session = Session::new(opts);

    sources
        .into_iter()
        .map(|(name, src)| {
            let artifact = session.compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let req =
                CompileRequest { timeout_ms: Some(AMPLE_BUDGET_MS), ..CompileRequest::new(&src) };
            Expected { name, req, payload: artifact.ir() }
        })
        .collect()
}

#[derive(Default)]
struct PassOutcome {
    ok: u64,
    /// Final responses that were typed errors (tolerated under chaos).
    errors: u64,
    /// Requests whose retry budget/deadline ran out with no final response.
    gave_up: u64,
    corrupted: u64,
    attempts: u64,
    reconnects: u64,
    latencies_us: Vec<u64>,
    elapsed: Duration,
}

/// Replay the request mix at `concurrency`, round-robin interleaved so
/// repeats of the same kernel are spread across the pass.
fn drive_pass(addr: &str, expected: &[Expected], total: usize, opts: &Opts) -> PassOutcome {
    let next = AtomicUsize::new(0);
    type Sample = (u64, RetryOutcome, bool); // (lat_us, outcome, corrupt)
    let (tx, rx) = mpsc::channel::<Sample>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..opts.concurrency.min(total) {
            let tx = tx.clone();
            let next = &next;
            let policy = opts.policy(t as u64);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let exp = &expected[i % expected.len()];
                    let t0 = Instant::now();
                    let outcome = client.compile_with_retry(&exp.req, &policy);
                    let lat = t0.elapsed().as_micros() as u64;
                    let corrupt =
                        outcome.response.as_ref().is_some_and(|r| r.ok && r.payload != exp.payload);
                    if corrupt {
                        eprintln!("serve_throughput: corrupted payload for `{}`", exp.name);
                    }
                    tx.send((lat, outcome, corrupt)).expect("collector alive");
                }
            });
        }
        drop(tx);
        let mut out = PassOutcome::default();
        for (lat, outcome, corrupt) in rx {
            out.latencies_us.push(lat);
            out.attempts += outcome.attempts as u64;
            out.reconnects += outcome.reconnects as u64;
            if corrupt {
                out.corrupted += 1;
            }
            match &outcome.response {
                Some(r) if r.ok => out.ok += 1,
                Some(_) => out.errors += 1,
                None => out.gave_up += 1,
            }
        }
        out.elapsed = start.elapsed();
        out
    })
}

/// Fold one finished request into a pass outcome, checking the payload
/// against the local expectation.
fn record_outcome(out: &mut PassOutcome, exp: &Expected, outcome: &RetryOutcome) {
    out.latencies_us.push(outcome.elapsed.as_micros() as u64);
    out.attempts += outcome.attempts as u64;
    out.reconnects += outcome.reconnects as u64;
    if outcome.response.as_ref().is_some_and(|r| r.ok && r.payload != exp.payload) {
        eprintln!("serve_throughput: corrupted payload for `{}`", exp.name);
        out.corrupted += 1;
    }
    match &outcome.response {
        Some(r) if r.ok => out.ok += 1,
        Some(_) => out.errors += 1,
        None => out.gave_up += 1,
    }
}

/// `--pipeline N`: the serving-layer comparison the v4 protocol exists
/// for. The cache is primed first so both passes measure dispatch, not
/// compilation; the serial pass drives one connection in strict lockstep
/// (the v1–v3 client model); the pipelined pass drives a connection pool
/// with `N` tagged requests in flight per connection.
fn run_pipeline_compare(opts: &Opts) -> bool {
    let depth = opts.pipeline.expect("dispatched on --pipeline");
    let (addr, handle) = connect_target(opts);
    eprintln!(
        "serve_throughput: pipelined-vs-serial against {addr} (depth {depth}, pool {})",
        opts.pool
    );

    eprintln!("serve_throughput: computing expected payloads locally...");
    let expected = build_probe_expected(32);
    let total = opts.requests.unwrap_or(expected.len() * opts.repeat);
    let mut ok = true;

    // Prime: one sequential pass over the distinct kernels.
    {
        let mut client = Client::connect(&addr).expect("connect");
        for exp in &expected {
            let o = client.compile_with_retry(&exp.req, &opts.policy(0));
            if !o.is_ok() && !opts.tolerate_faults {
                eprintln!(
                    "serve_throughput: FAIL: priming `{}` failed: {:?}",
                    exp.name, o.response
                );
                ok = false;
            }
        }
    }

    let mix: Vec<&Expected> = (0..total).map(|i| &expected[i % expected.len()]).collect();

    // Three passes per mode, keeping the fastest of each: a single pass on
    // a busy host measures the scheduler as much as the server, and the
    // *best* pass is the one that reflects what each mode can sustain.
    const PASSES: usize = 3;

    // Serial passes: one connection, one request in flight, ever.
    let serial = (0..PASSES)
        .map(|_| {
            let mut client = Client::connect(&addr).expect("connect");
            let mut out = PassOutcome::default();
            let start = Instant::now();
            for exp in &mix {
                let outcome = client.compile_with_retry(&exp.req, &opts.policy(1));
                record_outcome(&mut out, exp, &outcome);
            }
            out.elapsed = start.elapsed();
            out
        })
        .min_by_key(|out| out.elapsed)
        .expect("at least one serial pass");

    // Pipelined passes: the pooled client, `depth` in flight per connection.
    let pipelined = (0..PASSES)
        .map(|_| {
            let pool =
                Pool::new(PoolConfig { max_size: opts.pool, ..PoolConfig::new(addr.clone()) });
            let reqs: Vec<CompileRequest> = mix.iter().map(|e| e.req.clone()).collect();
            let start = Instant::now();
            let outcomes = pool.compile_many(&reqs, depth, &opts.policy(2));
            let mut out = PassOutcome::default();
            for (exp, outcome) in mix.iter().zip(&outcomes) {
                record_outcome(&mut out, exp, outcome);
            }
            out.elapsed = start.elapsed();
            out
        })
        .min_by_key(|out| out.elapsed)
        .expect("at least one pipelined pass");

    let mut rows = Vec::new();
    for (mode, conns, d, out) in
        [("serial", 1, 1, &serial), ("pipelined", opts.pool, depth, &pipelined)]
    {
        let mut lat = out.latencies_us.clone();
        let summary = percentiles(&mut lat);
        let secs = out.elapsed.as_secs_f64();
        rows.push(vec![
            mode.to_string(),
            conns.to_string(),
            d.to_string(),
            total.to_string(),
            out.ok.to_string(),
            out.errors.to_string(),
            out.gave_up.to_string(),
            out.corrupted.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{:.1}", out.ok as f64 / secs),
            format!("{:.2}", summary.p50_us as f64 / 1e3),
            format!("{:.2}", summary.p99_us as f64 / 1e3),
        ]);
    }
    let headers: Vec<String> = [
        "mode",
        "conns",
        "depth",
        "requests",
        "ok",
        "errors",
        "gave-up",
        "corrupt",
        "elapsed-ms",
        "req/s",
        "p50-ms",
        "p99-ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", format_table(&headers, &rows));

    let serial_rps = serial.ok as f64 / serial.elapsed.as_secs_f64();
    let pipelined_rps = pipelined.ok as f64 / pipelined.elapsed.as_secs_f64();
    let speedup = pipelined_rps / serial_rps;
    println!("pipelined-over-serial throughput: {speedup:.2}x");

    for (mode, out) in [("serial", &serial), ("pipelined", &pipelined)] {
        if out.corrupted > 0 || out.gave_up > 0 {
            eprintln!(
                "serve_throughput: FAIL ({mode}): {} corrupted / {} gave up of {total}",
                out.corrupted, out.gave_up
            );
            ok = false;
        }
        if !opts.tolerate_faults && (out.errors > 0 || out.ok != total as u64) {
            eprintln!(
                "serve_throughput: FAIL ({mode}): {} ok / {} errors of {total}",
                out.ok, out.errors
            );
            ok = false;
        }
    }
    // The headline acceptance bar: with a meaningful depth and pool, on a
    // healthy target, pipelining must buy at least 3x.
    if depth >= 8 && opts.pool >= 4 && !opts.tolerate_faults && speedup < 3.0 {
        eprintln!("serve_throughput: FAIL: pipelined speedup {speedup:.2}x < 3.00x");
        ok = false;
    }

    if !opts.no_shutdown && handle.is_some() {
        let control = Client::connect(&addr).expect("connect control client");
        shutdown_always(control, handle, opts, &mut ok);
    }
    ok
}

/// Interesting gauges off a STATS payload.
#[derive(Default)]
struct StatsSnap {
    hits: u64,
    misses: u64,
    queue_max: u64,
    persist_warm: u64,
    persist_quarantined: u64,
    worker_restarts: u64,
}

fn parse_stats(payload: &str) -> StatsSnap {
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let mut s = StatsSnap::default();
    for line in payload.lines() {
        if let Some(rest) = line.strip_prefix("cache: ") {
            s.hits = field(rest, "hits=");
            s.misses = field(rest, "misses=");
        } else if let Some(rest) = line.strip_prefix("queue: ") {
            s.queue_max = field(rest, "max=");
        } else if let Some(rest) = line.strip_prefix("persist: ") {
            s.persist_warm = field(rest, "warm=");
            s.persist_quarantined = field(rest, "quarantined=");
        } else if let Some(rest) = line.strip_prefix("workers: ") {
            s.worker_restarts = field(rest, "restarts=");
        }
    }
    s
}

fn fetch_stats(addr: &str, opts: &Opts) -> StatsSnap {
    let mut control = Client::connect(addr).expect("connect stats client");
    let outcome = control.retry_line("STATS", &opts.policy(999));
    match outcome.response {
        Some(r) if r.ok => parse_stats(&r.payload),
        other => {
            eprintln!("serve_throughput: STATS failed: {other:?}");
            StatsSnap::default()
        }
    }
}

fn run_load(opts: &Opts) -> bool {
    let (addr, mut handle) = connect_target(opts);
    eprintln!("serve_throughput: target {addr}, concurrency {}", opts.concurrency);

    eprintln!("serve_throughput: computing expected payloads locally...");
    let expected = build_expected();
    let total = opts.requests.unwrap_or(expected.len() * opts.repeat);
    eprintln!("serve_throughput: {} distinct kernels, {} requests per pass", expected.len(), total);

    let mut addr = addr;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut prev = (0u64, 0u64); // (hits, misses) before the pass
    let mut outcomes = Vec::new();
    let warm_label = if opts.restart { "warm-restart" } else { "warm" };
    let mut ok = true;
    for pass in ["cold", warm_label] {
        if pass == "warm-restart" {
            // Drain the server, then bring it back on the same cache dir:
            // the warm pass is served by the *recovered* disk tier.
            let control = Client::connect(&addr).expect("connect control client");
            shutdown_always(control, handle.take(), opts, &mut ok);
            let (new_addr, new_handle) =
                Server::spawn(server_config(opts)).expect("respawn in-process server");
            addr = new_addr.to_string();
            handle = new_handle.into();
            prev = (0, 0); // fresh process, fresh counters
            let snap = fetch_stats(&addr, opts);
            eprintln!(
                "serve_throughput: restarted on {addr}: persist warm={} quarantined={}",
                snap.persist_warm, snap.persist_quarantined
            );
            if snap.persist_warm == 0 {
                eprintln!("serve_throughput: FAIL: restart recovered no warm entries");
                ok = false;
            }
        }
        let out = drive_pass(&addr, &expected, total, opts);
        let snap = fetch_stats(&addr, opts);
        let (dh, dm) = (snap.hits - prev.0, snap.misses - prev.1);
        prev = (snap.hits, snap.misses);

        let mut lat = out.latencies_us.clone();
        let summary = percentiles(&mut lat);
        let secs = out.elapsed.as_secs_f64();
        rows.push(vec![
            pass.to_string(),
            total.to_string(),
            out.ok.to_string(),
            out.errors.to_string(),
            out.gave_up.to_string(),
            out.corrupted.to_string(),
            out.attempts.to_string(),
            out.reconnects.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{:.1}", out.ok as f64 / secs),
            format!("{:.2}", summary.p50_us as f64 / 1e3),
            format!("{:.2}", summary.p99_us as f64 / 1e3),
            format!("{:.1}", 100.0 * dh as f64 / (dh + dm).max(1) as f64),
            snap.queue_max.to_string(),
        ]);
        outcomes.push(out);
    }

    let headers: Vec<String> = [
        "pass",
        "requests",
        "ok",
        "errors",
        "gave-up",
        "corrupt",
        "attempts",
        "reconn",
        "elapsed-ms",
        "req/s",
        "p50-ms",
        "p99-ms",
        "hit-rate-%",
        "queue-max",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    println!("{}", format_table(&headers, &rows));

    let cold_rps = outcomes[0].ok as f64 / outcomes[0].elapsed.as_secs_f64();
    let warm_rps = outcomes[1].ok as f64 / outcomes[1].elapsed.as_secs_f64();
    println!("warm-over-cold throughput: {:.2}x", warm_rps / cold_rps);

    for (pass, out) in ["cold", warm_label].iter().zip(&outcomes) {
        // Corrupted payloads and hangs (gave-up) are never acceptable;
        // typed errors are tolerated only when the target injects faults.
        if out.corrupted > 0 || out.gave_up > 0 {
            eprintln!(
                "serve_throughput: FAIL ({pass}): {} corrupted / {} gave up of {total}",
                out.corrupted, out.gave_up
            );
            ok = false;
        }
        if !opts.tolerate_faults && (out.errors > 0 || out.ok != total as u64) {
            eprintln!(
                "serve_throughput: FAIL ({pass}): {} ok / {} errors of {total}",
                out.ok, out.errors
            );
            ok = false;
        }
    }
    if !opts.tolerate_faults && warm_rps <= cold_rps {
        eprintln!("serve_throughput: FAIL: warm pass not faster than cold pass");
        ok = false;
    }
    if opts.expect_restarts {
        let snap = fetch_stats(&addr, opts);
        if snap.worker_restarts == 0 {
            eprintln!("serve_throughput: FAIL: expected watchdog worker restarts, saw none");
            ok = false;
        } else {
            eprintln!("serve_throughput: watchdog respawned {} worker(s)", snap.worker_restarts);
        }
    }

    // An external --addr target is left running for further passes; only
    // an in-process server is drained here.
    if !opts.no_shutdown && handle.is_some() {
        let control = Client::connect(&addr).expect("connect control client");
        shutdown_always(control, handle, opts, &mut ok);
    }
    ok
}

/// CI smoke: N concurrent requests — one malformed line, one
/// timeout-inducing (tiny budget, heavy kernel), the rest normal — then a
/// SHUTDOWN (unless --no-shutdown). Every request must get a well-formed
/// response; under --tolerate-faults a typed ERR is tolerated.
fn run_smoke(opts: &Opts) -> bool {
    let n: usize = opts.requests.unwrap_or(32);
    const MALFORMED: usize = 5;
    const TIMEOUTY: usize = 9;

    let (addr, handle) = connect_target(opts);
    eprintln!("serve_throughput: smoke against {addr} ({n} concurrent requests)");

    let suite = lslp_kernels::suite();
    let heavy = big_kernel("pathological", 96);
    let (tx, rx) = mpsc::channel::<(usize, RetryOutcome)>();
    std::thread::scope(|scope| {
        for i in 0..n {
            let tx = tx.clone();
            let (addr, suite, heavy) = (&addr, &suite, &heavy);
            let policy = opts.policy(i as u64);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let outcome = match i {
                    MALFORMED => client.retry_line("COMPILE pipeline=maybe src=x", &policy),
                    TIMEOUTY => {
                        let req =
                            CompileRequest { timeout_ms: Some(0), ..CompileRequest::new(heavy) };
                        client.compile_with_retry(&req, &policy)
                    }
                    _ => {
                        let k = &suite[i % suite.len()];
                        let req = CompileRequest {
                            timeout_ms: Some(AMPLE_BUDGET_MS),
                            ..CompileRequest::new(k.src)
                        };
                        client.compile_with_retry(&req, &policy)
                    }
                };
                tx.send((i, outcome)).expect("collector alive");
            });
        }
    });
    drop(tx);

    let mut got = vec![false; n];
    let mut tolerated = 0u64;
    let mut ok = true;
    for (i, outcome) in rx {
        got[i] = true;
        match outcome.response {
            None => {
                eprintln!("smoke: request {i} got no response (gave_up={})", outcome.gave_up);
                ok = false;
            }
            Some(r) if i == MALFORMED => {
                if r.error != Some(ErrorKind::Proto) {
                    eprintln!("smoke: malformed request answered {r:?}, wanted kind=proto");
                    ok = false;
                }
            }
            Some(r) => {
                if !r.ok {
                    if opts.tolerate_faults {
                        // A typed error under injected faults is the
                        // contract working: no hang, no garbage.
                        tolerated += 1;
                    } else {
                        eprintln!("smoke: request {i} failed: {r:?}");
                        ok = false;
                    }
                }
            }
        }
    }
    if let Some(missing) = got.iter().position(|g| !g) {
        eprintln!("smoke: request {missing} never reported");
        ok = false;
    }

    // Pipelined leg: a pooled tagged burst through the same target. Every
    // request must settle — OK, or a typed ERR under injected faults.
    if let Some(depth) = opts.pipeline {
        let pool = Pool::new(PoolConfig { max_size: opts.pool, ..PoolConfig::new(addr.clone()) });
        let reqs: Vec<CompileRequest> = (0..depth * 2)
            .map(|i| CompileRequest {
                timeout_ms: Some(AMPLE_BUDGET_MS),
                ..CompileRequest::new(suite[i % suite.len()].src)
            })
            .collect();
        let outcomes = pool.compile_many(&reqs, depth, &opts.policy(777));
        let mut pipelined_tolerated = 0u64;
        for (i, o) in outcomes.iter().enumerate() {
            match &o.response {
                Some(r) if r.ok => {}
                Some(_) if opts.tolerate_faults => pipelined_tolerated += 1,
                other => {
                    eprintln!("smoke: pipelined request {i} failed: {other:?}");
                    ok = false;
                }
            }
        }
        eprintln!(
            "smoke: pipelined leg done ({} requests, depth {depth}, pool {}, {} typed errors tolerated)",
            reqs.len(),
            opts.pool,
            pipelined_tolerated
        );
        tolerated += pipelined_tolerated;
    }

    if ok {
        println!(
            "smoke: all {n} responses arrived (1 malformed rejected, {tolerated} typed errors tolerated)"
        );
    }

    if opts.expect_restarts {
        let snap = fetch_stats(&addr, opts);
        if snap.worker_restarts == 0 {
            eprintln!("smoke: FAIL: expected watchdog worker restarts, saw none");
            ok = false;
        } else {
            eprintln!("smoke: watchdog respawned {} worker(s)", snap.worker_restarts);
        }
    }

    if opts.no_shutdown {
        eprintln!("smoke: leaving target running (--no-shutdown)");
    } else {
        let control = Client::connect(&addr).expect("connect control client");
        shutdown_always(control, handle, opts, &mut ok);
    }
    ok
}

/// Post-crash probe: the target (freshly restarted on a populated
/// `--cache-dir`, typically after `kill -9`) must report recovered warm
/// entries and serve a suite kernel. Quarantined-entry counts are
/// reported; a quarantine is recovery working, not a failure.
fn run_warm_check(opts: &Opts) -> bool {
    let (addr, handle) = connect_target(opts);
    let mut ok = true;
    let snap = fetch_stats(&addr, opts);
    println!(
        "warm-check: persist warm={} quarantined={}",
        snap.persist_warm, snap.persist_quarantined
    );
    if snap.persist_warm == 0 {
        eprintln!("warm-check: FAIL: no warm entries recovered from the cache dir");
        ok = false;
    }

    let suite = lslp_kernels::suite();
    let req =
        CompileRequest { timeout_ms: Some(AMPLE_BUDGET_MS), ..CompileRequest::new(suite[0].src) };
    let mut client = Client::connect(&addr).expect("connect");
    let outcome = client.compile_with_retry(&req, &opts.policy(0));
    match &outcome.response {
        Some(r) if r.ok => {
            println!(
                "warm-check: `{}` served ok (cached={})",
                suite[0].name,
                r.field("cached").unwrap_or("?")
            );
        }
        other => {
            eprintln!("warm-check: FAIL: compile after restart failed: {other:?}");
            ok = false;
        }
    }

    if !opts.no_shutdown {
        let control = Client::connect(&addr).expect("connect control client");
        shutdown_always(control, handle, opts, &mut ok);
    }
    ok
}

/// Send SHUTDOWN and, for an in-process server, assert the clean drain.
/// Under injected faults the SHUTDOWN roundtrip itself may be severed; the
/// drain still happens (the flag is set server-side before the response is
/// dropped), so the join is the authoritative check there.
fn shutdown_always(
    mut control: Client,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    opts: &Opts,
    ok: &mut bool,
) {
    let outcome = control.retry_line("SHUTDOWN", &opts.policy(998));
    let responded = outcome.response.as_ref().is_some_and(|r| r.ok);
    if !responded && !opts.tolerate_faults {
        eprintln!("serve_throughput: SHUTDOWN failed: {:?}", outcome.response);
        *ok = false;
    }
    if let Some(h) = handle {
        match h.join() {
            Ok(Ok(())) => eprintln!("serve_throughput: server drained cleanly"),
            other => {
                eprintln!("serve_throughput: server did not drain cleanly: {other:?}");
                *ok = false;
            }
        }
    }
}
