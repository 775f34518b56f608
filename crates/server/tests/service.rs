//! End-to-end tests for the `lslpd` service: real sockets, real worker
//! pool, real shutdown — including the self-healing paths (injected
//! worker panics, persistent-cache restarts, health probes).

use std::time::Duration;

use lslp_server::chaos::ChaosConfig;
use lslp_server::protocol::{CompileRequest, ErrorKind};
use lslp_server::{Client, RetryPolicy, Server, ServerConfig};

const SRC: &str = "kernel k(f64* A, f64* B, i64 i) {
    A[i+0] = B[i+0] * B[i+0];
    A[i+1] = B[i+1] * B[i+1];
    A[i+2] = B[i+2] * B[i+2];
    A[i+3] = B[i+3] * B[i+3];
}";

fn test_config() -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), workers: 4, ..ServerConfig::default() }
}

/// A big-but-valid kernel for load/timeout tests: `groups` chains of 4
/// consecutive stores with commutative fodder.
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

#[test]
fn ping_compile_stats_shutdown() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    assert_eq!(client.ping().unwrap().payload, "pong");

    let r = client.compile(&CompileRequest::new(SRC)).unwrap();
    assert!(r.ok, "{r:?}");
    assert_eq!(r.field("cached"), Some("miss"));
    assert!(r.payload.contains("<4 x f64>"), "{}", r.payload);

    let stats = client.stats().unwrap();
    assert!(stats.ok);
    assert!(stats.payload.contains("server - requests-ok"), "{}", stats.payload);
    assert!(stats.payload.contains("vectorize - trees-vectorized"), "{}", stats.payload);
    assert!(stats.payload.contains("latency: count=1"), "{}", stats.payload);
    assert!(stats.payload.contains("queue: depth=0"), "{}", stats.payload);

    assert_eq!(client.shutdown().unwrap().payload, "draining");
    daemon.join().unwrap().unwrap();
}

#[test]
fn cache_roundtrip_over_the_wire() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let first = client.compile(&CompileRequest::new(SRC)).unwrap();
    let second = client.compile(&CompileRequest::new(SRC)).unwrap();
    assert_eq!(first.field("cached"), Some("miss"));
    assert_eq!(second.field("cached"), Some("hit"));
    assert_eq!(first.payload, second.payload, "hits serve byte-identical output");
    assert_eq!(first.field("key"), second.field("key"));

    // A different configuration is a different content key.
    let o3 = client
        .compile(&CompileRequest { config: "O3".into(), ..CompileRequest::new(SRC) })
        .unwrap();
    assert_eq!(o3.field("cached"), Some("miss"));
    assert_ne!(o3.field("key"), first.field("key"));
    assert!(!o3.payload.contains('<'), "O3 output is scalar");

    let stats = client.stats().unwrap();
    assert!(stats.payload.contains("1  server - cache-hits"), "{}", stats.payload);
    assert!(stats.payload.contains("2  server - cache-misses"), "{}", stats.payload);

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// `name=` on the `STATS` gauge line `block: ...`.
fn gauge(stats: &str, block: &str, name: &str) -> u64 {
    let fields = stats
        .lines()
        .find_map(|l| l.strip_prefix(block)?.strip_prefix(": "))
        .unwrap_or_else(|| panic!("no `{block}:` line in\n{stats}"));
    fields
        .split(' ')
        .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}=` on `{block}:` in\n{stats}"))
}

/// The `server - counter` registry row of a `STATS` payload (0 when the
/// counter was never reported).
fn server_row(stats: &str, counter: &str) -> u64 {
    let suffix = format!("  server - {counter}");
    stats
        .lines()
        .find_map(|l| l.trim_start().strip_suffix(suffix.as_str()))
        .map_or(0, |v| v.parse().unwrap())
}

#[test]
fn stats_counts_agree_with_the_registry_rows() {
    // K fresh compiles, then J repeats, over one connection: each request
    // is one cache hit or one cache miss, and every line of STATS and
    // HEALTH that shows a count reads the same registry cell.
    const K: u64 = 5;
    const J: u64 = 3;
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let distinct =
        |n: u64| CompileRequest::new(&SRC.replace("kernel k(", &format!("kernel k{n}(")));
    for n in 0..K {
        let r = client.compile(&distinct(n)).unwrap();
        assert_eq!(r.field("cached"), Some("miss"), "{r:?}");
    }
    for n in 0..J {
        let r = client.compile(&distinct(n)).unwrap();
        assert_eq!(r.field("cached"), Some("hit"), "{r:?}");
    }

    let stats = client.stats().unwrap().payload;
    assert_eq!(gauge(&stats, "cache", "hits"), J, "{stats}");
    assert_eq!(gauge(&stats, "cache", "misses"), K, "each miss counts once:\n{stats}");
    assert_eq!(server_row(&stats, "cache-hits"), J, "{stats}");
    assert_eq!(server_row(&stats, "cache-misses"), K, "{stats}");
    assert_eq!(gauge(&stats, "net", "accepted"), server_row(&stats, "connections-accepted"));
    assert_eq!(gauge(&stats, "net", "accepted"), 1, "{stats}");
    let health = client.health().unwrap();
    let restarts: u64 = health.field("worker-restarts").unwrap().parse().unwrap();
    assert_eq!(restarts, gauge(&stats, "workers", "restarts"), "{health:?}\n{stats}");

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn malformed_and_user_errors_do_not_kill_the_connection() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let bad = client.roundtrip("FROBNICATE the vectorizer").unwrap();
    assert_eq!(bad.error, Some(ErrorKind::Proto));

    let parse = client.compile(&CompileRequest::new("kernel broken(")).unwrap();
    assert_eq!(parse.error, Some(ErrorKind::Parse));

    let cfg = client
        .compile(&CompileRequest { config: "GCC".into(), ..CompileRequest::new(SRC) })
        .unwrap();
    assert_eq!(cfg.error, Some(ErrorKind::Config));

    // The same connection still serves good requests afterwards.
    let ok = client.compile(&CompileRequest::new(SRC)).unwrap();
    assert!(ok.ok, "{ok:?}");

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn tight_budget_degrades_instead_of_stalling() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let src = big_kernel("big", 128);
    let r = client
        .compile(&CompileRequest { timeout_ms: Some(0), ..CompileRequest::new(&src) })
        .unwrap();
    assert!(r.ok, "budget exhaustion is not an error: {r:?}");
    assert!(r.payload.contains("@big"), "{}", r.payload);

    // An ample budget on the same source is a different content key (the
    // budget shapes the output), so it must not be served from the
    // tight-budget entry.
    let full = client
        .compile(&CompileRequest { timeout_ms: Some(60_000), ..CompileRequest::new(&src) })
        .unwrap();
    assert!(full.ok);
    assert_eq!(full.field("cached"), Some("miss"));
    assert!(full.payload.contains("<4 x f64>"), "{}", full.payload);

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_get_consistent_answers() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();

    // Expected outputs, computed through the service itself first (the
    // cache-consistency property below is what matters: every concurrent
    // response must equal the sequential one).
    let sources: Vec<String> = (0..4).map(|k| big_kernel(&format!("k{k}"), 4 + k)).collect();
    let mut expected = Vec::new();
    {
        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        for src in &sources {
            let r = client.compile(&CompileRequest::new(src)).unwrap();
            assert!(r.ok);
            expected.push(r.payload);
        }
    }

    std::thread::scope(|s| {
        for t in 0..8usize {
            let sources = &sources;
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                for round in 0..4 {
                    let k = (t + round) % sources.len();
                    let r = client.compile(&CompileRequest::new(&sources[k])).unwrap();
                    assert!(r.ok, "thread {t}: {r:?}");
                    assert_eq!(r.payload, expected[k], "thread {t} kernel {k} corrupted");
                    // The warm pass is served from the cache, never recompiled.
                    assert_eq!(r.field("cached"), Some("hit"), "thread {t} kernel {k}: {r:?}");
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let stats = client.stats().unwrap().payload;
    assert_eq!(server_row(&stats, "cache-hits"), 32, "8 threads x 4 warm requests:\n{stats}");
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn health_probe_reports_ready_with_live_workers() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Give the watchdog a tick to take its first census.
    std::thread::sleep(Duration::from_millis(100));
    let h = client.health().unwrap();
    assert!(h.ok, "{h:?}");
    assert_eq!(h.field("status"), Some("ready"));
    assert_eq!(h.field("degraded"), Some("0"));
    let alive: u64 = h.field("workers-alive").unwrap().parse().unwrap();
    assert!(alive >= 1, "worker pool is up: {h:?}");
    assert_eq!(h.field("worker-restarts"), Some("0"));

    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn injected_worker_panics_are_typed_healed_and_drained() {
    // Every job panics its worker (panic=1.0): the client must get a typed
    // internal error — never a hang — the watchdog must respawn workers,
    // and the daemon must still drain and exit cleanly on SHUTDOWN.
    let cfg = ServerConfig {
        chaos: Some(ChaosConfig { seed: 1, worker_panic: 1.0, ..ChaosConfig::default() }),
        workers: 2,
        ..test_config()
    };
    let (addr, daemon) = Server::spawn(cfg).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let r = client.compile(&CompileRequest::new(SRC)).unwrap();
    assert_eq!(r.error, Some(ErrorKind::Internal), "{r:?}");
    assert!(r.payload.contains("worker dropped the request"), "{}", r.payload);

    // The retrying client classifies that error as transient and keeps
    // trying until its budget runs out — still no hang, still typed.
    let policy = RetryPolicy {
        max_retries: 2,
        deadline: Some(Duration::from_secs(30)),
        ..RetryPolicy::default()
    };
    let outcome = client.compile_with_retry(&CompileRequest::new(SRC), &policy);
    assert!(outcome.gave_up, "every attempt hits a panicking worker");
    assert_eq!(outcome.attempts, 3);
    assert!(outcome.response.is_some(), "typed ERR, not a dead transport");

    // Let the watchdog census catch up, then check the healing is visible.
    std::thread::sleep(Duration::from_millis(200));
    let h = client.health().unwrap();
    let restarts: u64 = h.field("worker-restarts").unwrap().parse().unwrap();
    assert!(restarts >= 1, "watchdog respawned panicked workers: {h:?}");
    let stats = client.stats().unwrap();
    assert!(stats.payload.contains("server - worker-restarts"), "{}", stats.payload);
    assert!(stats.payload.contains("chaos: active=1"), "{}", stats.payload);

    assert_eq!(client.shutdown().unwrap().payload, "draining");
    daemon.join().unwrap().unwrap();
}

#[test]
fn persistent_cache_survives_a_clean_restart_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("lslp-service-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg =
        || ServerConfig { cache_dir: Some(dir.to_string_lossy().into_owned()), ..test_config() };

    let (addr, daemon) = Server::spawn(cfg()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let first = client.compile(&CompileRequest::new(SRC)).unwrap();
    assert_eq!(first.field("cached"), Some("miss"));
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    let (addr, daemon) = Server::spawn(cfg()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.payload.contains("persist: enabled=1 warm=1"), "{}", stats.payload);
    let warm = client.compile(&CompileRequest::new(SRC)).unwrap();
    assert_eq!(warm.field("cached"), Some("hit"), "restart serves from the disk tier");
    assert_eq!(warm.payload, first.payload, "byte-identical across restart");
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_client_reconnects_across_a_daemon_generation() {
    // A client holding a connection to a killed-and-replaced daemon on the
    // same port must transparently reconnect and complete the request.
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    assert!(client.compile(&CompileRequest::new(SRC)).unwrap().ok);
    client.shutdown().unwrap();
    daemon.join().unwrap().unwrap();

    // Same port, fresh daemon.
    let cfg = ServerConfig { addr: addr.to_string(), ..test_config() };
    let (_, daemon) = Server::spawn(cfg).unwrap();
    let policy = RetryPolicy { deadline: Some(Duration::from_secs(30)), ..RetryPolicy::default() };
    let outcome = client.compile_with_retry(&CompileRequest::new(SRC), &policy);
    assert!(outcome.is_ok(), "{outcome:?}");
    assert!(outcome.reconnects >= 1, "the dead connection forced a reconnect: {outcome:?}");

    let _ = client.retry_line("SHUTDOWN", &policy);
    daemon.join().unwrap().unwrap();
}

#[test]
fn shutdown_rejects_new_work_and_drains() {
    let (addr, daemon) = Server::spawn(test_config()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    assert!(client.compile(&CompileRequest::new(SRC)).unwrap().ok);
    assert_eq!(client.shutdown().unwrap().payload, "draining");

    // Work submitted on the surviving connection is refused (queue closed)
    // rather than silently dropped — as long as the daemon is still
    // draining; afterwards the connection may simply be gone.
    if let Ok(r) = client.compile(&CompileRequest::new(SRC)) {
        assert_eq!(r.error, Some(ErrorKind::Shutdown), "{r:?}");
    }
    drop(client);
    daemon.join().unwrap().unwrap();

    // And the port is released.
    assert!(Client::connect(addr).is_err(), "daemon must have exited");
}
