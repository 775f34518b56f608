//! End-to-end tests for the protocol-v4 pipelining path: one connection
//! carrying many tagged in-flight `COMPILE`s (out-of-order completion,
//! duplicate-tag rejection, FIFO preserved for untagged traffic), a
//! mid-burst `SHUTDOWN` drain, the pooled `compile_many` client under
//! seeded faults, and the pipelined-over-serial throughput gate.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lslp::{CompileOptions, Session};
use lslp_server::chaos::ChaosConfig;
use lslp_server::protocol::{CompileRequest, ErrorKind, Response};
use lslp_server::{Client, Pool, PoolConfig, RetryOutcome, RetryPolicy, Server, ServerConfig};

const SRC: &str = "kernel k(f64* A, f64* B, i64 i) {
    A[i+0] = B[i+0] * B[i+0];
    A[i+1] = B[i+1] * B[i+1];
    A[i+2] = B[i+2] * B[i+2];
    A[i+3] = B[i+3] * B[i+3];
}";

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 256,
        pipeline_depth: 64,
        ..ServerConfig::default()
    }
}

/// A big-but-valid kernel: `groups` chains of 4 consecutive stores with
/// commutative fodder, slow enough that cheap requests overtake it.
fn big_kernel(name: &str, groups: usize) -> String {
    let mut src = format!("kernel {name}(f64* A, f64* B, f64* C, i64 i) {{\n");
    for g in 0..groups {
        for l in 0..4 {
            let idx = g * 4 + l;
            src.push_str(&format!(
                "  A[i+{idx}] = (B[i+{idx}] * C[i+{idx}] + B[i+{idx}]) * (C[i+{idx}] + {g}.0);\n"
            ));
        }
    }
    src.push('}');
    src
}

/// A small kernel unique to `n` (cache-miss fodder).
fn small_kernel(n: usize) -> String {
    format!(
        "kernel s{n}(f64* A, f64* B, i64 i) {{\n  A[i+0] = B[i+0] + {n}.0;\n  A[i+1] = B[i+1] + {n}.0;\n}}"
    )
}

/// Raw pipelining harness: write every line in one burst, then read
/// until `expected` responses arrived. Returns them in arrival order.
fn burst(stream: &mut TcpStream, lines: &[String], expected: usize) -> Vec<Response> {
    let mut payload = String::new();
    for l in lines {
        payload.push_str(l);
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut responses = Vec::with_capacity(expected);
    let mut line = String::new();
    while responses.len() < expected {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed early: got {}/{expected} responses", responses.len());
        responses.push(Response::parse(&line).unwrap());
    }
    responses
}

#[test]
fn sixty_four_pipelined_compiles_are_tag_matched_and_complete_out_of_order() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();

    // Prime the cache so a slice of the burst are hits.
    let mut warm = Client::connect(addr).unwrap();
    warm.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let hit_req = CompileRequest::new(SRC);
    let primed = warm.compile(&hit_req).unwrap();
    assert!(primed.ok, "{primed:?}");

    // 64 tagged requests on ONE connection: t0 is a heavy miss, a third
    // are cache hits, the rest are distinct misses, and a few carry
    // timeout-ms=0 (budget-exhausting: they must degrade, not stall).
    let heavy = big_kernel("heavy", 96);
    let mut lines = Vec::new();
    let mut kinds: HashMap<String, &str> = HashMap::new();
    for i in 0..64usize {
        let tag = format!("t{i}");
        let (kind, mut req) = if i == 0 {
            ("heavy", CompileRequest { timeout_ms: Some(60_000), ..CompileRequest::new(&heavy) })
        } else if i % 3 == 0 {
            ("hit", hit_req.clone())
        } else if i % 13 == 0 {
            (
                "budget",
                CompileRequest { timeout_ms: Some(0), ..CompileRequest::new(&small_kernel(i)) },
            )
        } else {
            ("miss", CompileRequest::new(&small_kernel(i)))
        };
        req.tag = Some(tag.clone());
        kinds.insert(tag, kind);
        lines.push(req.to_line());
    }

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let responses = burst(&mut stream, &lines, 64);

    // Every response is OK, tagged, and every tag is answered exactly once.
    let mut seen = HashMap::new();
    for r in &responses {
        assert!(r.ok, "{r:?}");
        let tag = r.tag().expect("v4 responses echo the tag").to_string();
        assert!(kinds.contains_key(&tag), "unknown tag {tag}");
        *seen.entry(tag.clone()).or_insert(0u32) += 1;
        match kinds[&tag] {
            "hit" => {
                assert_eq!(r.field("cached"), Some("hit"), "{r:?}");
                assert_eq!(r.payload, primed.payload, "hits serve byte-identical output");
            }
            "heavy" | "budget" | "miss" => {
                assert!(r.payload.contains("kernel") || r.payload.contains('@'), "{r:?}")
            }
            _ => unreachable!(),
        }
    }
    assert_eq!(seen.len(), 64, "all 64 tags answered");
    assert!(seen.values().all(|&c| c == 1), "no tag answered twice: {seen:?}");

    // Out-of-order completion: the heavy t0 was sent first but cheap
    // requests overtake it on other workers.
    let t0_pos = responses.iter().position(|r| r.tag() == Some("t0")).unwrap();
    assert!(t0_pos > 0, "heavy first request must not finish first (pipelining is live)");

    let mut ctl = Client::connect(addr).unwrap();
    ctl.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let stats = ctl.stats().unwrap();
    assert!(stats.payload.contains("pipeline-depth-hwm="), "{}", stats.payload);
    let net_row = stats.payload.lines().find(|l| l.trim_start().starts_with("net:")).unwrap();
    let hwm: u64 = net_row
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("pipeline-depth-hwm="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(hwm >= 8, "the burst drove a deep pipeline (hwm={hwm})");
    ctl.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn untagged_burst_keeps_strict_fifo_order() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    // Slow first request, then quick ones: responses must still come
    // back in send order (the v1–v3 contract, via the reorder buffer).
    let heavy = big_kernel("h2", 64);
    let mut lines =
        vec![CompileRequest { timeout_ms: Some(60_000), ..CompileRequest::new(&heavy) }.to_line()];
    for i in 0..15usize {
        lines.push(CompileRequest::new(&small_kernel(100 + i)).to_line());
    }
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let responses = burst(&mut stream, &lines, 16);
    assert!(responses.iter().all(|r| r.ok), "{responses:?}");
    assert!(responses.iter().all(|r| r.tag().is_none()), "untagged in, untagged out");
    assert!(
        responses[0].payload.contains("@h2"),
        "first response answers the first (heavy) request despite finishing last"
    );
    for (i, r) in responses.iter().enumerate().skip(1) {
        assert!(
            r.payload.contains(&format!("@s{}", 99 + i)),
            "response {i} out of order: {}",
            r.payload.lines().next().unwrap_or("")
        );
    }
    let mut ctl = Client::connect(addr).unwrap();
    ctl.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn duplicate_inflight_tag_is_rejected_typed_and_first_still_answers() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let heavy = big_kernel("h3", 64);
    let mut first = CompileRequest { timeout_ms: Some(60_000), ..CompileRequest::new(&heavy) };
    first.tag = Some("dup".into());
    let mut second = CompileRequest::new(SRC);
    second.tag = Some("dup".into());
    // One write burst: the duplicate arrives while the first is in
    // flight, deterministically.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let responses = burst(&mut stream, &[first.to_line(), second.to_line()], 2);
    let errs: Vec<_> = responses.iter().filter(|r| !r.ok).collect();
    let oks: Vec<_> = responses.iter().filter(|r| r.ok).collect();
    assert_eq!(errs.len(), 1, "{responses:?}");
    assert_eq!(oks.len(), 1, "{responses:?}");
    assert_eq!(errs[0].error, Some(ErrorKind::Proto));
    assert_eq!(errs[0].tag(), Some("dup"), "the offending tag is echoed");
    assert!(errs[0].payload.contains("already in flight"), "{}", errs[0].payload);
    assert_eq!(oks[0].tag(), Some("dup"));
    assert!(oks[0].payload.contains("@h3"), "the first request still compiles");
    let mut ctl = Client::connect(addr).unwrap();
    ctl.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn tags_require_protocol_four() {
    // A connection that negotiated v3 sends a tagged compile: typed
    // proto error echoing the tag, connection stays usable.
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut tagged = CompileRequest::new(SRC);
    tagged.tag = Some("t0".into());
    let responses = burst(
        &mut stream,
        &["HELLO proto=3".to_string(), tagged.to_line(), CompileRequest::new(SRC).to_line()],
        3,
    );
    assert!(responses[0].ok, "{:?}", responses[0]);
    assert_eq!(responses[1].error, Some(ErrorKind::Proto), "{:?}", responses[1]);
    assert_eq!(responses[1].tag(), Some("t0"));
    assert!(responses[1].payload.contains("requires protocol 4"), "{}", responses[1].payload);
    assert!(responses[2].ok, "untagged traffic unaffected: {:?}", responses[2]);
    let mut ctl = Client::connect(addr).unwrap();
    ctl.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn mid_burst_shutdown_drains_cleanly() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();

    // 32 tagged compiles in flight, then SHUTDOWN arrives on another
    // connection mid-burst.
    let mut payload = String::new();
    for i in 0..32usize {
        let mut req = CompileRequest::new(&small_kernel(200 + i));
        req.tag = Some(format!("t{i}"));
        payload.push_str(&req.to_line());
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut ctl = Client::connect(addr).unwrap();
    ctl.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(ctl.shutdown().unwrap().payload, "draining");

    // Every request already admitted is answered (OK or a typed
    // shutdown rejection for the ones that arrived after the drain
    // began); then the server closes the connection; then the daemon
    // exits cleanly. No hangs, no dropped tags.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut seen = HashMap::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // drained and closed
            Ok(_) => {
                let r = Response::parse(&line).unwrap();
                let tag = r.tag().expect("every burst response is tagged").to_string();
                *seen.entry(tag).or_insert(0u32) += 1;
                if !r.ok {
                    assert_eq!(
                        r.error,
                        Some(ErrorKind::Shutdown),
                        "only shutdown rejections are acceptable: {r:?}"
                    );
                }
            }
            Err(e) => panic!("read failed while draining: {e}"),
        }
    }
    assert_eq!(seen.len(), 32, "every tag answered before close: {seen:?}");
    assert!(seen.values().all(|&c| c == 1));
    daemon.join().unwrap().unwrap();
}

#[test]
fn pooled_compile_many_fans_out_and_preserves_input_order() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let pool = Pool::new(PoolConfig { max_size: 4, ..PoolConfig::new(addr.to_string()) });

    let reqs: Vec<CompileRequest> =
        (0..24).map(|i| CompileRequest::new(&small_kernel(300 + i))).collect();
    let policy = RetryPolicy { deadline: Some(Duration::from_secs(60)), ..RetryPolicy::default() };
    let outcomes = pool.compile_many(&reqs, 8, &policy);
    assert_eq!(outcomes.len(), 24);
    for (i, o) in outcomes.iter().enumerate() {
        assert!(o.is_ok(), "request {i}: {o:?}");
        let r = o.response.as_ref().unwrap();
        assert!(
            r.payload.contains(&format!("@s{}", 300 + i)),
            "outcome {i} matches its request: {}",
            r.payload.lines().next().unwrap_or("")
        );
        assert!(o.elapsed > Duration::ZERO);
    }
    let created = pool.counters().created.load(std::sync::atomic::Ordering::Relaxed);
    assert!(created <= 4, "pool respects max_size (created={created})");

    // A second batch re-uses pooled connections.
    let again = pool.compile_many(&reqs[..8], 4, &policy);
    assert!(again.iter().all(|o| o.is_ok()));
    assert!(
        again.iter().all(|o| o.response.as_ref().unwrap().field("cached") == Some("hit")),
        "second batch is served from cache"
    );
    assert!(
        pool.counters().reused.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "connections were re-used"
    );

    let mut ctl = Client::connect(addr).unwrap();
    ctl.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn pool_evicts_broken_and_reaps_idle_connections() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let pool = Pool::new(PoolConfig {
        max_size: 2,
        idle_timeout: Duration::from_millis(50),
        health_check_after: Duration::from_millis(10),
        ..PoolConfig::new(addr.to_string())
    });

    // Broken eviction: a marked connection is dropped, not pooled.
    {
        let mut c = pool.acquire().unwrap();
        assert!(c.ping().unwrap().ok);
        c.mark_broken();
    }
    assert_eq!(pool.counters().evicted_broken.load(std::sync::atomic::Ordering::Relaxed), 1);

    // Idle reaping: a pooled connection past idle_timeout is closed on
    // the next acquire and replaced by a fresh dial.
    {
        let _c = pool.acquire().unwrap();
    }
    std::thread::sleep(Duration::from_millis(80));
    {
        let mut c = pool.acquire().unwrap();
        assert!(c.ping().unwrap().ok, "fresh connection works");
    }
    assert!(
        pool.counters().reaped_idle.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "idle connection was reaped"
    );

    // Health-checked reuse: a pooled connection idle past
    // health_check_after (but under idle_timeout) is PINGed before reuse.
    std::thread::sleep(Duration::from_millis(20));
    {
        let mut c = pool.acquire().unwrap();
        assert!(c.ping().unwrap().ok);
    }
    assert!(
        pool.counters().health_checks.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "stale connection was health-checked before reuse"
    );

    let mut ctl = Client::connect(addr).unwrap();
    ctl.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// A budget the guard never exhausts, so the daemon's output is the
/// local compile's, byte for byte.
const AMPLE_BUDGET_MS: u64 = 60_000;

/// `count` distinct four-lane kernels, each as a request with an ample
/// budget plus the payload a local compile of it produces.
fn probe_requests(count: usize) -> Vec<(CompileRequest, String)> {
    let opts = CompileOptions::preset("LSLP").time_budget_ms(AMPLE_BUDGET_MS).build().unwrap();
    let mut session = Session::new(opts);
    (0..count)
        .map(|i| {
            let mut src = format!("kernel probe{i}(f64* A, f64* B, i64 i) {{\n");
            for l in 0..4 {
                src.push_str(&format!("  A[i+{l}] = B[i+{l}] * B[i+{l}] + {i}.0;\n"));
            }
            src.push('}');
            let payload = session.compile(&src).unwrap().ir();
            (
                CompileRequest { timeout_ms: Some(AMPLE_BUDGET_MS), ..CompileRequest::new(&src) },
                payload,
            )
        })
        .collect()
}

#[test]
fn pooled_batch_under_seeded_chaos_settles_every_request() {
    // The same fault schedule every run: worker panics, dropped reads and
    // writes, delayed responses. Each request must settle as OK with the
    // right bytes or as a typed ERR — never a corrupt payload, never a
    // hang until the deadline.
    let chaos = ChaosConfig {
        seed: 11,
        worker_panic: 0.05,
        read_drop: 0.03,
        write_drop: 0.03,
        delay_ms: 5,
        delay_prob: 0.1,
        ..ChaosConfig::default()
    };
    let (addr, daemon) =
        Server::spawn(ServerConfig { chaos: Some(chaos), ..test_config() }).unwrap();
    let probes = probe_requests(32);
    let mix: Vec<&(CompileRequest, String)> = (0..64).map(|i| &probes[i % probes.len()]).collect();
    let reqs: Vec<CompileRequest> = mix.iter().map(|(req, _)| req.clone()).collect();
    let pool = Pool::new(PoolConfig { max_size: 4, ..PoolConfig::new(addr.to_string()) });
    let deadline = Duration::from_secs(60);
    let policy =
        RetryPolicy { max_retries: 10, deadline: Some(deadline), ..RetryPolicy::default() };

    let outcomes = pool.compile_many(&reqs, 16, &policy);
    assert_eq!(outcomes.len(), 64);
    let mut typed_errors = 0;
    for (i, (o, (_, payload))) in outcomes.iter().zip(&mix).enumerate() {
        let r = o.response.as_ref().unwrap_or_else(|| panic!("request {i} got no response: {o:?}"));
        if r.ok {
            assert_eq!(&r.payload, payload, "request {i}: corrupt payload");
        } else {
            assert!(r.error.is_some(), "request {i}: untyped ERR {r:?}");
            typed_errors += 1;
        }
        assert!(o.elapsed < deadline, "request {i} ran to its deadline: {o:?}");
    }
    assert!(typed_errors < 64, "chaos at these rates still lets work through");
    let attempts: u32 = outcomes.iter().map(|o| o.attempts).sum();
    assert!(attempts > 64, "the fault schedule fired: {attempts} attempts for 64 requests");

    // The SHUTDOWN roundtrip itself may be severed; the drain still happens.
    let mut ctl = Client::connect(addr).unwrap();
    let _ = ctl.retry_line("SHUTDOWN", &policy);
    daemon.join().unwrap().unwrap();
}

#[test]
#[ignore = "timing gate: CI runs it in release"]
fn pipelined_pool_is_three_times_serial_throughput() {
    // 32 distinct small kernels served warm, so both modes measure request
    // turnaround, not compilation or payload bandwidth. Each mode keeps the
    // best of three passes: a single pass on a busy host measures the
    // scheduler as much as the server.
    const REQUESTS: usize = 8000;
    const PASSES: usize = 3;
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let probes = probe_requests(32);
    let policy = RetryPolicy { deadline: Some(Duration::from_secs(60)), ..RetryPolicy::default() };
    let mut client = Client::connect(addr).unwrap();
    for (req, payload) in &probes {
        let o = client.compile_with_retry(req, &policy);
        assert_eq!(o.response.map(|r| r.payload), Some(payload.clone()), "priming");
    }
    let mix: Vec<&(CompileRequest, String)> =
        (0..REQUESTS).map(|i| &probes[i % probes.len()]).collect();
    let check = |outcomes: &[RetryOutcome]| {
        for (i, (o, (_, payload))) in outcomes.iter().zip(&mix).enumerate() {
            assert!(o.is_ok(), "request {i}: {o:?}");
            assert_eq!(&o.response.as_ref().unwrap().payload, payload, "request {i}");
        }
    };

    // Serial: one connection, one request in flight.
    let serial = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let outcomes: Vec<_> =
                mix.iter().map(|(req, _)| client.compile_with_retry(req, &policy)).collect();
            let elapsed = start.elapsed();
            check(&outcomes);
            elapsed
        })
        .min()
        .unwrap();

    // Pipelined: a pool of 4 connections, 32 tagged requests in flight on each.
    let reqs: Vec<CompileRequest> = mix.iter().map(|(req, _)| req.clone()).collect();
    let pipelined = (0..PASSES)
        .map(|_| {
            let pool = Pool::new(PoolConfig { max_size: 4, ..PoolConfig::new(addr.to_string()) });
            let start = Instant::now();
            let outcomes = pool.compile_many(&reqs, 32, &policy);
            let elapsed = start.elapsed();
            check(&outcomes);
            elapsed
        })
        .min()
        .unwrap();

    let speedup = serial.as_secs_f64() / pipelined.as_secs_f64();
    println!(
        "pipelined-over-serial throughput: {speedup:.2}x \
         ({REQUESTS} requests: serial {serial:?}, pipelined {pipelined:?})"
    );
    assert!(speedup >= 3.0, "pipelined speedup {speedup:.2}x < 3.00x");

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}
