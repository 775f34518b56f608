//! Crash-recovery end-to-end test: a real `lslpd` process is populated,
//! killed with SIGKILL (no drain, no flush — the crash the persistent
//! tier is built for), damaged on disk, and restarted. The restart must
//! come up warm, quarantine the damaged entry instead of failing, and
//! serve byte-identical artifacts for the surviving one. A chaos-mode
//! daemon is driven, killed and restarted the same way.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use lslp::{CompileOptions, Session};
use lslp_server::protocol::CompileRequest;
use lslp_server::{Client, RetryPolicy};

const SRC_A: &str = "kernel ka(f64* A, f64* B, i64 i) {
    A[i+0] = B[i+0] * B[i+0];
    A[i+1] = B[i+1] * B[i+1];
    A[i+2] = B[i+2] * B[i+2];
    A[i+3] = B[i+3] * B[i+3];
}";

const SRC_B: &str = "kernel kb(f64* A, f64* B, i64 i) {
    A[i+0] = B[i+0] + 1.0;
    A[i+1] = B[i+1] + 2.0;
    A[i+2] = B[i+2] + 3.0;
    A[i+3] = B[i+3] + 4.0;
}";

/// A request whose key material is identical across daemon generations
/// (the budget participates in the cache key, so pin it).
fn request(src: &str) -> CompileRequest {
    CompileRequest { timeout_ms: Some(60_000), ..CompileRequest::new(src) }
}

/// One test's daemon generations and their shared cache directory.
///
/// Dropping it kills and reaps a daemon still running and removes the
/// directory, so a failed assertion leaks neither a live `lslpd` nor its
/// cache dir.
struct Daemon {
    dir: PathBuf,
    child: Option<Child>,
}

impl Daemon {
    /// A fresh (emptied) cache directory named after `name` and this
    /// process; no daemon runs yet.
    fn new(name: &str) -> Daemon {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Daemon { dir, child: None }
    }

    /// Start the next generation of the real `lslpd` binary on a free
    /// port with this cache dir (2 workers unless `extra` says
    /// otherwise), parse the bound address off its stderr banner, and
    /// keep draining the rest of its stderr so the daemon can never block
    /// on a full pipe. The guard owns the process before the banner is
    /// read, so a daemon that fails to come up is reaped too.
    fn start(&mut self, extra: &[&str]) -> String {
        assert!(self.child.is_none(), "the previous generation is still running");
        let child = self.child.insert(
            Command::new(env!("CARGO_BIN_EXE_lslpd"))
                .args([
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    "2",
                    "--cache-dir",
                    self.dir.to_str().expect("utf-8 temp path"),
                ])
                .args(extra)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn lslpd"),
        );
        let mut reader = BufReader::new(child.stderr.take().expect("stderr piped"));
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read lslpd stderr");
            assert!(n > 0, "lslpd exited before printing its address");
            if let Some(rest) = line.trim().strip_prefix("lslpd: serving on ") {
                break rest.to_string();
            }
        };
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        addr
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("a daemon is running").id()
    }

    /// SIGKILL the running generation and reap it.
    fn kill(&mut self) {
        let mut child = self.child.take().expect("a daemon is running");
        child.kill().expect("SIGKILL lslpd");
        child.wait().expect("reap killed lslpd");
    }

    /// Wait for the running generation to exit on its own.
    fn wait(&mut self) -> ExitStatus {
        self.child.take().expect("a daemon is running").wait().expect("wait for lslpd")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn connect(addr: &str) -> Client {
    let mut client = Client::connect(addr).expect("connect to lslpd");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client
}

#[test]
fn kill_dash_nine_restart_comes_up_warm_and_quarantines_damage() {
    let mut daemon = Daemon::new("lslp-crash-e2e");

    // Generation 1: populate two entries, then die without any shutdown.
    let addr = daemon.start(&[]);
    let mut client = connect(&addr);
    let a1 = client.compile(&request(SRC_A)).unwrap();
    let b1 = client.compile(&request(SRC_B)).unwrap();
    assert!(a1.ok && b1.ok, "{a1:?} {b1:?}");
    let b_key = b1.field("key").expect("key field").to_string();
    drop(client);
    daemon.kill();

    // The entries survived the kill (they were written via atomic rename
    // before the responses went out).
    let entries = daemon.dir.join("entries");
    assert!(entries.join(format!("{b_key}.entry")).is_file(), "entry on disk after kill -9");

    // Flip a byte in entry B's payload: bit-rot / torn write.
    let victim = entries.join(format!("{b_key}.entry"));
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    // Generation 2: must start (damage is quarantined, not fatal), report
    // the warm/quarantined split, and serve identical bytes for A.
    let addr = daemon.start(&[]);
    let mut client = connect(&addr);

    let stats = client.stats().unwrap();
    assert!(
        stats.payload.contains("persist: enabled=1 warm=1 quarantined=1"),
        "one survivor, one quarantined:\n{}",
        stats.payload
    );

    let a2 = client.compile(&request(SRC_A)).unwrap();
    assert_eq!(a2.field("cached"), Some("hit"), "survivor served warm: {a2:?}");
    assert_eq!(a2.payload, a1.payload, "byte-identical artifact across kill -9");

    // The damaged entry is a miss — recompiled, same bytes as before, and
    // the quarantine file is preserved for inspection.
    let b2 = client.compile(&request(SRC_B)).unwrap();
    assert_eq!(b2.field("cached"), Some("miss"), "{b2:?}");
    assert_eq!(b2.payload, b1.payload, "recompile reproduces the artifact");
    assert!(
        daemon.dir.join("quarantine").join(format!("{b_key}.entry")).is_file(),
        "damaged entry moved aside, not deleted"
    );

    // Health is ready — a quarantine is recovery working, not degradation.
    let h = client.health().unwrap();
    assert_eq!(h.field("degraded"), Some("0"), "{h:?}");

    assert_eq!(client.shutdown().unwrap().payload, "draining");
    let status = daemon.wait();
    assert!(status.success(), "clean exit after drain: {status:?}");
}

#[test]
fn second_kill_while_warm_keeps_the_cache_consistent() {
    // Crash-loop resilience: kill a *warmed* daemon (whose memory cache was
    // seeded from disk) and verify the next generation still recovers — the
    // warm-load path must not rewrite or damage the disk tier.
    let mut daemon = Daemon::new("lslp-crashloop-e2e");

    let addr = daemon.start(&[]);
    let mut client = connect(&addr);
    let first = client.compile(&request(SRC_A)).unwrap();
    assert!(first.ok);
    drop(client);
    daemon.kill();

    for generation in 2..4 {
        let addr = daemon.start(&[]);
        let mut client = connect(&addr);
        let r = client.compile(&request(SRC_A)).unwrap();
        assert_eq!(r.field("cached"), Some("hit"), "generation {generation}: {r:?}");
        assert_eq!(r.payload, first.payload, "generation {generation} artifact drifted");
        drop(client);
        daemon.kill();
    }
}

#[test]
fn chaos_daemon_killed_mid_run_restarts_warm_and_correct() {
    let mut daemon = Daemon::new("lslp-chaos-e2e");
    let suite = lslp_kernels::suite();
    let opts = CompileOptions::preset("LSLP").time_budget_ms(60_000).build().unwrap();
    let mut session = Session::new(opts);
    let expected: Vec<String> =
        suite.iter().map(|k| session.compile(k.src).unwrap().ir()).collect();
    let policy = RetryPolicy {
        max_retries: 10,
        deadline: Some(Duration::from_secs(60)),
        ..RetryPolicy::default()
    };

    // Generation 1 under seeded chaos: seed 7 panics workers within the
    // first 64 requests and corrupts a quarter of the entries it persists.
    // Every request must resolve as OK or a typed ERR, never a hang.
    let addr = daemon.start(&[
        "--workers",
        "4",
        "--chaos",
        "seed=7,panic=0.1,read-drop=0.05,write-drop=0.05,delay=5:0.1,corrupt=0.25",
    ]);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (addr, suite, expected, policy) = (&addr, &suite, &expected, &policy);
            scope.spawn(move || {
                let mut client = connect(addr);
                for n in 0..8 {
                    let i = (t * 8 + n) % suite.len();
                    let outcome = client.compile_with_retry(&request(suite[i].src), policy);
                    let name = suite[i].name;
                    let r = outcome.response.unwrap_or_else(|| panic!("{name}: no response"));
                    if r.ok {
                        assert_eq!(r.payload, expected[i], "{name}: corrupt payload");
                    } else {
                        assert!(r.error.is_some(), "{name}: untyped ERR {r:?}");
                    }
                }
            });
        }
    });
    // The watchdog counts a respawn at its first census after the panic:
    // poll until one shows, or the deadline passes.
    let mut client = connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    let (health, restarts) = loop {
        let health = client.retry_line("HEALTH", &policy).response.expect("HEALTH answered");
        let restarts: u64 = health.field("worker-restarts").unwrap().parse().unwrap();
        if restarts >= 1 || Instant::now() >= deadline {
            break (health, restarts);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(restarts >= 1, "the watchdog respawned panicked workers: {health:?}");
    drop(client);
    daemon.kill();

    // Generation 2, chaos off: the tier comes up warm (whatever chaos
    // corrupted is quarantined) and serves the artifact a local compile
    // produces.
    let addr = daemon.start(&["--workers", "4"]);
    let mut client = connect(&addr);
    let stats = client.stats().unwrap().payload;
    let warm: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("persist: "))
        .and_then(|l| l.split(' ').find_map(|f| f.strip_prefix("warm=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no persist warm= in\n{stats}"));
    assert!(warm > 0, "restart recovered no warm entries:\n{stats}");
    let served = client.compile(&request(suite[0].src)).unwrap();
    assert!(served.ok, "{served:?}");
    assert_eq!(served.payload, expected[0], "`{}` after kill -9 and restart", suite[0].name);

    assert_eq!(client.shutdown().unwrap().payload, "draining");
    assert!(daemon.wait().success());
}

/// One snapshot of `/proc/<pid>/task`: each thread's id, name and nice
/// value.
#[cfg(target_os = "linux")]
fn threads(pid: u32) -> Vec<(u32, String, i64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).expect("task list") {
        let task = task.unwrap().path();
        let tid: u32 = task.file_name().unwrap().to_str().unwrap().parse().unwrap();
        let comm = std::fs::read_to_string(task.join("comm")).unwrap();
        let stat = std::fs::read_to_string(task.join("stat")).unwrap();
        // Fields after the parenthesised command start at field 3; the
        // nice value is field 19.
        let after = &stat[stat.rfind(')').expect("stat names the command") + 2..];
        let nice: i64 = after.split(' ').nth(19 - 3).unwrap().parse().unwrap();
        out.push((tid, comm.trim().to_string(), nice));
    }
    out
}

/// The compile workers run at nice 10 so cache hits, answered on the
/// event loop, do not wait for a CPU behind a compile; the event loop
/// (the main thread) keeps nice 0.
#[cfg(target_os = "linux")]
#[test]
fn compile_workers_run_at_nice_ten_and_the_event_loop_at_zero() {
    let mut daemon = Daemon::new("lslp-nice-e2e");
    let addr = daemon.start(&[]);
    // A compile round-trip proves only that one worker has entered its
    // loop: each worker names itself and lowers its own priority after it
    // starts. Poll the task list until both have, or the deadline passes.
    assert!(connect(&addr).compile(&request(SRC_A)).unwrap().ok);
    let pid = daemon.pid();
    let deadline = Instant::now() + Duration::from_secs(5);
    let tasks = loop {
        let tasks = threads(pid);
        let settled = tasks.iter().filter(|(_, comm, nice)| comm == "lslpd-worker" && *nice == 10);
        if settled.count() == 2 || Instant::now() >= deadline {
            break tasks;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut workers = 0;
    for (tid, comm, nice) in tasks {
        if comm == "lslpd-worker" {
            workers += 1;
            assert_eq!(nice, 10, "worker thread {tid} runs at nice {nice}");
        } else if tid == pid {
            assert_eq!(nice, 0, "the main (event-loop) thread runs at nice {nice}");
        }
    }
    assert_eq!(workers, 2, "both compile workers are named lslpd-worker");
}
