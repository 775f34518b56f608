//! The `serve` workload: `lslpd` as its own process under a closed-loop
//! request mix.
//!
//! The daemon runs with `--workers 2`. Two client threads each own one
//! connection and keep a window of four tagged protocol-v4 `COMPILE`
//! requests in flight: a new request goes out only when a response comes
//! back. Each request is a cache read with probability 0.8 (a source from
//! a seeded hot set that fits the daemon's 1024-entry cache, warmed
//! before timing) and otherwise a source never sent before (a miss that
//! compiles, inserts, and in time evicts). All sources are rendered from
//! seeded `lslp_fuzz` plans through SLC; a miss takes a kernel from a
//! second seeded pool and renames it uniquely, so its text is new while
//! its compile work is that of a real fuzz kernel. Latency runs from the
//! write of a request line to the read of its response line.
//!
//! Every response payload is byte-compared with an artifact compiled in
//! this process: hot payloads with the hot source's artifact, miss
//! payloads with their pool kernel's artifact under the request's kernel
//! name. The artifacts of the hot set and the pool are also executed
//! against their O3-pipeline references, which gives `sim_speedup`.
//!
//! While the clients run, the otherwise idle main thread samples the
//! host's speed with the reference task of [`crate::pace`] at a low duty
//! cycle, and every time is reported scaled to nominal host speed.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use lslp::{Sabotage, Session};
use lslp_fuzz::{build, Plan};
use lslp_server::protocol::{CompileRequest, ErrorKind, Response};
use lslp_target::CostModel;

use crate::compile::{
    check_output, compile_op, lslp_options, o3_options, prepare, Counts, Input, Prepared, Source,
};
use crate::layers::{self, WireItem};
use crate::oracle::{ExecSpec, GENERATED_TOLERANCE};
use crate::pace::Pace;
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{geomean, median, peak_rss_mb, Rng};
use crate::{Config, SETUP_REPS, TARGET, TIMEOUT_MS};

/// Distinct sources in the hot set (the daemon caches 1024).
const HOT: usize = 256;
/// Kernels in the pool misses are drawn from.
const POOL: usize = 1024;
/// Share of requests drawn from the hot set.
const HOT_SHARE: f64 = 0.8;
/// Client connections, one thread each.
const CONNS: usize = 2;
/// Tagged requests in flight per connection.
const WINDOW: usize = 4;
/// Pause between reference-task samples in the window: a chunk takes
/// about 0.1 ms, so sampling costs the daemon about 5% of one CPU.
const PACE_GAP: Duration = Duration::from_millis(2);
/// How every fuzz kernel's source starts; misses replace the name.
const FUZZ_HEADER: &str = "kernel fuzz(";

/// A seeded fuzz-plan program rendered to SLC, and how to execute it.
fn fuzz_input(rng: &mut Rng) -> Result<Input, String> {
    let bytes: Vec<u8> = (0..48).map(|_| rng.next_u64() as u8).collect();
    let mut plan = Plan::decode(&bytes);
    plan.via_slc = true;
    let program = build(&plan)?;
    let src = program.slc.ok_or("a via_slc plan renders SLC")?;
    if !src.starts_with(FUZZ_HEADER) {
        return Err(format!("fuzz source does not start with `{FUZZ_HEADER}`"));
    }
    Ok(Input {
        source: Source::Slc(src),
        spec: ExecSpec {
            float: !plan.int,
            len: program.min_len,
            invocations: vec![0],
            mem_seed: rng.next_u64(),
            tolerance: GENERATED_TOLERANCE,
        },
    })
}

fn slc(input: &Input) -> &str {
    match &input.source {
        Source::Slc(src) => src,
        Source::Ir(_) => unreachable!("serve inputs are SLC"),
    }
}

/// `text` (a fuzz kernel's source or IR) with its kernel renamed from
/// `fuzz` to `name`.
fn renamed(text: &str, name: &str) -> String {
    text.replacen("kernel fuzz(", &format!("kernel {name}("), 1).replacen(
        "func @fuzz(",
        &format!("func @{name}("),
        1,
    )
}

/// The request line for `src` carrying `tag`.
fn request_line(src: &str, tag: &str) -> String {
    let req = CompileRequest {
        target: Some(TARGET.into()),
        timeout_ms: Some(TIMEOUT_MS),
        ..CompileRequest::new(src)
    };
    let mut line = String::with_capacity(src.len() + 128);
    req.line_into(Some(tag), &mut line);
    line.push('\n');
    line
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut conn = Conn { reader: BufReader::new(stream), writer, line: String::new() };
        let hello = conn.call("HELLO proto=5\n")?;
        if !hello.ok {
            return Err(format!("HELLO refused: {}", hello.payload));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("write: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed by lslpd".into()),
            Ok(_) => Response::parse(&self.line),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<Response, String> {
        self.send(line)?;
        self.recv()
    }

    /// `STATS` as numbers: `pass.counter` registry rows and `block.key`
    /// gauge fields.
    fn stats(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let r = self.call("STATS\n")?;
        let mut out = BTreeMap::new();
        for line in r.payload.lines() {
            if let Some((value, name)) = line.trim().split_once("  ") {
                if let (Ok(v), Some((pass, counter))) = (value.parse(), name.split_once(" - ")) {
                    out.insert(format!("{pass}.{counter}"), v);
                    continue;
                }
            }
            if let Some((block, fields)) = line.split_once(": ") {
                for (k, v) in fields.split(' ').filter_map(|f| f.split_once('=')) {
                    if let Ok(v) = v.parse() {
                        out.insert(format!("{block}.{k}"), v);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A running `lslpd`; dropping it stops the process.
struct Daemon {
    child: Child,
    /// Kept open so the daemon's last log lines never hit a closed pipe.
    stderr: BufReader<ChildStderr>,
    port: u16,
}

impl Daemon {
    fn spawn(cfg: &Config) -> Result<Daemon, String> {
        let mut child = Command::new(&cfg.lslpd)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cfg.lslpd.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut daemon = Daemon { child, stderr, port: 0 };
        let mut first = String::new();
        let read = daemon.stderr.read_line(&mut first);
        let port = first
            .trim()
            .strip_prefix("lslpd: serving on ")
            .and_then(|addr| addr.rsplit_once(':'))
            .and_then(|(_, port)| port.parse().ok());
        match (read, port) {
            (Ok(_), Some(port)) => {
                daemon.port = port;
                Ok(daemon)
            }
            _ => Err(format!("lslpd did not come up: {}", first.trim())),
        }
    }

    /// Ask the daemon to drain and wait for it to exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let r = conn.call("SHUTDOWN\n")?;
        if !r.ok {
            return Err(format!("SHUTDOWN refused: {}", r.payload));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return Err(format!("lslpd exited with {status}: {}", rest.trim()));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                // Dropping `self` kills the daemon.
                Ok(None) => return Err("lslpd did not exit within 30 s of SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for lslpd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What a request asked for.
#[derive(Clone, Copy)]
enum Ask {
    /// Hot source `i`.
    Hot(usize),
    /// Pool kernel `i` under a fresh name.
    Miss(usize),
}

/// One completed request.
struct Sample {
    ask: Ask,
    cached_hit: bool,
    ms: f64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Miss requests: pool kernel, kernel name, payload — checked after
    /// the window.
    miss_payloads: Vec<(usize, String, String)>,
    /// Why requests failed (error responses, wrong hot payloads).
    errors: Vec<String>,
    retries: u64,
}

/// Drive one connection: keep `WINDOW` tagged requests in flight until
/// `stop_at`, then drain.
fn client(
    conn: &mut Conn,
    id: usize,
    seed: u64,
    hot: &[(String, String)],
    pool: &[String],
    stop_at: Instant,
) -> Result<ClientLog, String> {
    let mut rng = Rng::new(seed, 100 + id as u64);
    let mut log = ClientLog::default();
    // In flight: tag → (sent at, what, request line).
    let mut inflight: BTreeMap<String, (Instant, Ask, String)> = BTreeMap::new();
    let mut seq = 0u64;
    let mut issue = |conn: &mut Conn| -> Result<(String, (Instant, Ask, String)), String> {
        // Unique across both connections, and a valid kernel name: a miss
        // renames its kernel to its tag.
        let tag = format!("m{id}_{seq}");
        seq += 1;
        let (ask, line) = if rng.chance(HOT_SHARE) {
            let i = rng.below(hot.len());
            (Ask::Hot(i), request_line(&hot[i].0, &tag))
        } else {
            let i = rng.below(pool.len());
            (Ask::Miss(i), request_line(&renamed(&pool[i], &tag), &tag))
        };
        let sent = Instant::now();
        conn.send(&line)?;
        Ok((tag, (sent, ask, line)))
    };
    for _ in 0..WINDOW {
        let (tag, entry) = issue(conn)?;
        inflight.insert(tag, entry);
    }
    while !inflight.is_empty() {
        let r = conn.recv()?;
        let done = Instant::now();
        let tag = r.tag().ok_or("a response without its tag")?.to_string();
        let (sent, ask, line) =
            inflight.remove(&tag).ok_or_else(|| format!("unknown tag {tag}"))?;
        if r.error == Some(ErrorKind::Overload) {
            // Not a failure: the closed loop resends after a back-off.
            log.retries += 1;
            std::thread::sleep(Duration::from_millis(1));
            conn.send(&line)?;
            inflight.insert(tag, (Instant::now(), ask, line));
            continue;
        }
        let cached_hit = r.field("cached") == Some("hit");
        match ask {
            _ if !r.ok => log.errors.push(format!("{tag}: {:?} {}", r.error, r.payload)),
            Ask::Hot(i) if r.payload != hot[i].1 => {
                log.errors.push(format!("hot source {i}: payload differs from the local artifact"))
            }
            Ask::Hot(_) => {}
            Ask::Miss(i) => log.miss_payloads.push((i, tag, r.payload)),
        }
        log.samples.push(Sample {
            ask,
            cached_hit,
            ms: done.duration_since(sent).as_secs_f64() * 1e3,
        });
        if done < stop_at {
            let (tag, entry) = issue(conn)?;
            inflight.insert(tag, entry);
        }
    }
    Ok(log)
}

/// Everything set-up produces.
struct Setup {
    daemon: Daemon,
    conns: Vec<Conn>,
    /// The hot set, prepared with O3 references.
    hot: Vec<Prepared>,
    /// Hot sources with their local LSLP artifacts.
    hot_wire: Vec<(String, String)>,
    /// Simulated speedups of the hot artifacts.
    speedups: Vec<f64>,
    /// Hot artifacts' instruction counts, summed.
    insts_out: usize,
    /// Vectorizer counts of the hot artifacts.
    counts: Counts,
    /// The kernels misses rename.
    pool: Vec<Input>,
    /// Set-up time without the reference task's.
    busy: Duration,
}

/// Draw inputs, compile the hot set locally and check it against its
/// references, start `lslpd`, connect, and warm its cache with the hot
/// set, running the reference task between hot sources.
fn setup(cfg: &Config, tm: &CostModel, tr: &mut Tracer, pace: &mut Pace) -> Result<Setup, String> {
    let start = Instant::now();
    let mut rng = Rng::new(cfg.seed, 4);
    let mut seen = HashSet::new();
    let mut draw = |n: usize| -> Result<Vec<Input>, String> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let input = fuzz_input(&mut rng)?;
            if seen.insert(slc(&input).to_string()) {
                out.push(input);
            }
        }
        Ok(out)
    };
    let hot_inputs = draw(HOT)?;
    let pool = draw(POOL)?;

    let mut o3 = Session::new(o3_options());
    let mut lslp = Session::new(lslp_options(Sabotage::None));
    let mut quiet = Tracer::new(false);
    let mut hot = Vec::with_capacity(HOT);
    let mut hot_wire = Vec::with_capacity(HOT);
    let mut speedups = Vec::with_capacity(HOT);
    let mut insts_out = 0;
    let mut counts = Counts::default();
    let mut busy = start.elapsed();
    for (i, input) in hot_inputs.into_iter().enumerate() {
        let t0 = Instant::now();
        let p = prepare(input, &mut o3, tm, tr, i as u64)?;
        let (text, report) = compile_op(&p.input.source, None, &mut lslp, &mut quiet, 0)
            .map_err(|e| format!("hot source {i}: {e}"))?;
        let (speedup, insts) =
            check_output(&text, &p, tm, &mut quiet).map_err(|e| format!("hot source {i}: {e}"))?;
        counts.add(&report);
        speedups.push(speedup);
        insts_out += insts;
        hot_wire.push((slc(&p.input).to_string(), text));
        hot.push(p);
        let took = t0.elapsed();
        busy += took;
        pace.after(took);
    }

    let warm = Instant::now();
    let daemon = Daemon::spawn(cfg)?;
    let mut conns = (0..CONNS).map(|_| Conn::open(daemon.port)).collect::<Result<Vec<_>, _>>()?;
    // Warm the cache: every hot source once, pipelined over connection 0.
    for (batch, chunk) in hot_wire.chunks(WINDOW).enumerate() {
        for (j, (src, _)) in chunk.iter().enumerate() {
            conns[0].send(&request_line(src, &format!("w{}", batch * WINDOW + j)))?;
        }
        for _ in chunk {
            let r = conns[0].recv()?;
            let i: usize = r
                .tag()
                .and_then(|t| t.strip_prefix('w'))
                .and_then(|t| t.parse().ok())
                .ok_or("warm-up response without its tag")?;
            if !r.ok || r.payload != hot_wire[i].1 {
                return Err(format!("warm-up of hot source {i} disagrees with the local artifact"));
            }
        }
    }
    busy += warm.elapsed();
    Ok(Setup { daemon, conns, hot, hot_wire, speedups, insts_out, counts, pool, busy })
}

/// Run `serve`.
///
/// # Errors
///
/// A message when set-up fails or the daemon misbehaves at the protocol
/// level (closed connection, unknown tag).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let tm = lslp_target::TargetSpec::parse(TARGET).expect("registry target");
    let mut tr = Tracer::new(cfg.trace);
    let mut setup_pace = Pace::default();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut s: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut prev) = s.take() {
            prev.daemon.shutdown(&mut prev.conns[0])?;
        }
        let next = setup(cfg, &tm, &mut tr, &mut setup_pace)?;
        times.push(next.busy.as_secs_f64());
        s = Some(next);
    }
    let Setup { daemon, mut conns, hot, hot_wire, speedups, insts_out, counts, pool, .. } =
        s.expect("SETUP_REPS > 0");
    let setup_s = setup_pace.scaled(median(&mut times));
    let pool_src: Vec<String> = pool.iter().map(|i| slc(i).to_string()).collect();

    // The timed window, one thread per connection.
    let before = conns[0].stats()?;
    let mut pace = Pace::default();
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(id, conn)| {
                let (hot_wire, pool) = (&hot_wire, &pool_src);
                scope.spawn(move || client(conn, id, cfg.seed, hot_wire, pool, stop_at))
            })
            .collect();
        while Instant::now() < stop_at {
            pace.sample();
            std::thread::sleep(PACE_GAP);
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let after = conns[0].stats()?;
    let daemon_rss = peak_rss_mb(daemon.child.id());
    daemon.shutdown(&mut conns[0])?;

    // Compile every pool kernel and check it against its O3-pipeline
    // reference, then check each miss payload against its kernel's
    // artifact under the request's kernel name.
    let mut report = Report::default();
    let mut speedups = speedups;
    let mut o3 = Session::new(o3_options());
    let mut lslp = Session::new(lslp_options(Sabotage::None));
    let mut quiet = Tracer::new(false);
    let cache_before = lslp.cache_stats();
    let mut analysis = Duration::ZERO;
    let mut pool_text: Vec<Result<String, String>> = Vec::with_capacity(POOL);
    for (op, input) in pool.into_iter().enumerate() {
        let p = prepare(input, &mut o3, &tm, &mut tr, (HOT + op) as u64);
        let checked = p.and_then(|p| {
            let (text, r) = compile_op(&p.input.source, None, &mut lslp, &mut tr, op as u64)
                .map_err(|e| e.to_string())?;
            // Cumulative over the session: the last value is the total.
            analysis = r.analysis_time;
            speedups.push(check_output(&text, &p, &tm, &mut quiet)?.0);
            Ok(text)
        });
        if let Err(e) = &checked {
            report.note(format!("pool kernel {op}: {e}"));
        }
        pool_text.push(checked);
    }
    let cache_after = lslp.cache_stats();
    for log in &logs {
        report.failed += log.errors.len() as u64;
        for e in &log.errors {
            report.note(e.clone());
        }
        for (i, name, payload) in &log.miss_payloads {
            let ok = pool_text[*i].as_ref().is_ok_and(|text| renamed(text, name) == *payload);
            if !ok {
                report.failed += 1;
                report.note(format!("miss {name}: payload differs from the local artifact"));
            }
        }
    }

    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    report.attempted = samples.len() as u64;
    let class_mean = |hit: bool| -> f64 {
        let ms: Vec<f64> = samples.iter().filter(|s| s.cached_hit == hit).map(|s| s.ms).collect();
        ms.iter().sum::<f64>() / ms.len().max(1) as f64
    };
    let throughput = samples.len() as f64 / pace.scaled(elapsed);
    report.set("throughput_per_s", throughput);
    report.set("light_ms_mean", pace.scaled(class_mean(true)));
    report.set("heavy_ms_mean", pace.scaled(class_mean(false)));
    report.set("sim_speedup", geomean(&speedups));
    report.set("ok_frac", 1.0 - report.failed as f64 / samples.len().max(1) as f64);
    report.set("peak_rss_mb", daemon_rss.unwrap_or(0.0));
    report.set("setup_s", setup_s);

    if cfg.trace {
        let stat = |k: &str| after.get(k).copied().unwrap_or(0.0);
        let delta = |k: &str| stat(k) - before.get(k).copied().unwrap_or(0.0);
        let hits = delta("server.cache-hits");
        report.set("server.service_ms_p50", stat("latency.p50_us") / 1e3);
        report.set("server.service_ms_p99", stat("latency.p99_us") / 1e3);
        report.set("server.cache_hit_ratio", hits / (hits + delta("server.cache-misses")).max(1.0));
        report.set("server.cache_evictions", delta("cache.evictions"));
        report.set("server.queue_max", stat("queue.max"));
        report.set("server.pipeline_hwm", stat("net.pipeline-depth-hwm"));
        report.set("server.retries", logs.iter().map(|l| l.retries).sum::<u64>() as f64);
        counts.report(&mut report, hot.len());
        report.set("ir.insts_out", insts_out as f64 / hot.len() as f64);
        let a_hits = (cache_after.hits - cache_before.hits) as f64;
        let a_misses = (cache_after.misses - cache_before.misses) as f64;
        report.set("analysis.hit_ratio", a_hits / (a_hits + a_misses).max(1.0));
        report.set("analysis.miss_us", analysis.as_secs_f64() * 1e6 / POOL as f64);
        report.set("trace.throughput_per_s", throughput);

        let lslp_cfg = lslp_options(Sabotage::None);
        for (idx, p) in hot.iter().enumerate() {
            layers::replay_vectorizer(&p.o3, lslp_cfg.config(), &tm, &mut tr, idx as u64);
        }
        // The wire drive replays the window's requests: hot items first,
        // then one item per pool kernel.
        let items: Vec<WireItem> =
            hot_wire
                .iter()
                .map(|(src, text)| WireItem::new(src, text, TIMEOUT_MS))
                .chain(pool_src.iter().zip(&pool_text).map(|(src, text)| {
                    WireItem::new(src, text.as_deref().unwrap_or(""), TIMEOUT_MS)
                }))
                .collect();
        let sequence: Vec<usize> = samples
            .iter()
            .map(|s| match s.ask {
                Ask::Hot(i) => i,
                Ask::Miss(i) => HOT + i,
            })
            .collect();
        layers::drive_wire(&items, &sequence, &mut tr);
        crate::report_layers(
            &mut report,
            &tr,
            crate::LayerCounts {
                ops: POOL,
                replayed: hot.len(),
                executions: hot.len() * SETUP_REPS + POOL,
                wire_ops: sequence.len(),
            },
        );
        crate::write_trace(cfg, &tr);
    }
    Ok(report)
}
