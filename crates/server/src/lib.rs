//! # lslp-server — `lslpd`, the concurrent LSLP compile service
//!
//! A long-lived, multi-threaded compile daemon over [`lslp`]'s guarded
//! pass pipeline: SLC source in, vectorized IR (or a report) out, with a
//! line-delimited protocol ([`protocol`]), a bounded work queue with
//! rejection backpressure ([`queue`]), a worker pool that compiles each
//! cache miss through a fresh [`lslp::Session`], and a sharded
//! content-addressed result cache ([`cache`]) so repeated traffic is
//! served without re-running the pipeline. Monotonic counters (per-pass
//! counters, requests, cache hits and misses, worker restarts) accumulate
//! in one [`lslp::Statistics`] registry; with the instantaneous gauges
//! (queue depth, open connections, latency percentiles) they are served
//! by the `STATS` verb ([`metrics`]).
//!
//! `std`-only by design: nonblocking `TcpListener` + `thread` (the build
//! environment has no package registry), which also keeps the concurrency
//! model auditable — one readiness-driven event-loop thread owning every
//! connection (`net`: poll-based registration, per-connection buffers
//! and frame decoding, protocol-v4 pipelining with tagged out-of-order
//! responses), and a supervised pool of compile workers behind the
//! queue, joined to the loop by a completion seam. The client side adds
//! a bounded connection pool with a pipelined `compile_many`
//! ([`pool`]).
//!
//! Crash safety is layered (see `docs/SERVER.md` §Recovery):
//!
//! * per-request compile budgets ride the pass guard's time-budget fuel
//!   ([`lslp::VectorizerConfig::time_budget_ms`]), so a pathological
//!   input degrades to (partially) scalar output instead of stalling a
//!   worker; panics and miscompiles inside passes are isolated by the
//!   transactional guard (`docs/GUARD.md`). The guard's default delta-log
//!   strategy means workers no longer pay a defensive whole-function
//!   clone per guarded pass and seed attempt — rollback state is the
//!   reversible mutation log inside the [`Function`](lslp_ir::Function)
//!   itself;
//! * a **watchdog** supervises the worker pool: a worker thread that
//!   dies outside a drain is respawned (`worker-restarts`), a worker
//!   busy past the stall threshold gets a supplementary worker spawned
//!   beside it (`worker-stalls`);
//! * an optional **persistent tier** ([`persist`]) mirrors the result
//!   cache to `--cache-dir` through checksummed, atomically-renamed
//!   entry files plus an append-only journal, so a restarted daemon —
//!   even after `kill -9` — starts warm, quarantining any corrupt
//!   entries instead of failing;
//! * a seeded **fault-injection layer** ([`chaos`]) drops connections,
//!   delays/drops responses, panics workers, and corrupts disk entries
//!   on demand, so all of the above is exercised by tests;
//! * the `HEALTH` verb reports `ready`/`degraded`/`draining` for probes.

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod metrics;
pub(crate) mod net;
pub mod persist;
pub mod pool;
pub mod protocol;
pub mod queue;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lslp::api::{CompileOptions, LslpError, Session};
use lslp::{PipelineReport, Statistics};

use cache::{content_key, CachedResult, ResultCache};
use chaos::{Chaos, ChaosConfig};
use metrics::LatencyReservoir;
use persist::PersistentCache;
use protocol::{CompileRequest, Emit, ErrorKind, Request, Response, PROTOCOL_VERSION};
use queue::{Bounded, PushError};

pub use client::{Client, RetryOutcome, RetryPolicy};
pub use pool::{Pool, PoolConfig};

/// Tunables for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Compile worker threads.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it are rejected with
    /// `ERR kind=overload`.
    pub queue_capacity: usize,
    /// Total cache entries across all shards.
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Default per-request compile budget (ms) when the request does not
    /// carry `timeout-ms=`.
    pub default_time_budget_ms: u64,
    /// Directory for the persistent cache tier (`None` = memory-only).
    pub cache_dir: Option<String>,
    /// Fault-injection spec (`None` = no injected faults).
    pub chaos: Option<ChaosConfig>,
    /// A worker busy on one job past this threshold is counted stalled
    /// and a supplementary worker is spawned beside it.
    pub stall_after_ms: u64,
    /// Connection limit: accepts beyond it get one `ERR kind=overload`
    /// line and are closed.
    pub max_conns: usize,
    /// Per-connection pipelining budget: a connection at this many
    /// in-flight compiles stops being read (TCP backpressure) until
    /// completions drain.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_shards: 16,
            default_time_budget_ms: 500,
            cache_dir: None,
            chaos: None,
            stall_after_ms: 10_000,
            max_conns: 1024,
            pipeline_depth: 32,
        }
    }
}

/// One unit of compile work: the parsed request plus the completion
/// handle that routes the response back through the event loop. Dropping
/// the handle unsent (a worker panic) reports the job worker-lost.
struct Job {
    req: CompileRequest,
    done: net::Completion,
    /// When the request's frame was decoded: a miss's latency covers the
    /// queue wait as well as the compile.
    decoded: Instant,
}

/// State shared by the acceptor, connection threads, workers, and the
/// watchdog.
struct Shared {
    cfg: ServerConfig,
    queue: Bounded<Job>,
    cache: ResultCache,
    persist: Option<PersistentCache>,
    chaos: Option<Chaos>,
    /// Workers currently alive (the watchdog's last census).
    workers_alive: AtomicU64,
    net: net::NetGauges,
    /// Every monotonic service counter, plus the absorbed per-pass rows.
    registry: Statistics,
    latency: LatencyReservoir,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    /// Allocate shared state: open the persistent tier (when configured)
    /// and warm the memory cache from it.
    fn new(cfg: ServerConfig) -> Shared {
        let (persist, warm) = match &cfg.cache_dir {
            Some(dir) => {
                let (p, warm) = PersistentCache::open(std::path::Path::new(dir));
                (Some(p), warm)
            }
            None => (None, Vec::new()),
        };
        let shared = Shared {
            queue: Bounded::new(cfg.queue_capacity),
            cache: ResultCache::new(cfg.cache_capacity, cfg.cache_shards),
            persist,
            chaos: cfg.chaos.clone().filter(|c| c.is_active()).map(Chaos::new),
            workers_alive: AtomicU64::new(0),
            net: net::NetGauges::default(),
            registry: Statistics::new(),
            latency: LatencyReservoir::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            cfg,
        };
        for entry in &warm {
            // Disk already holds these; only memory (and any overflow
            // tombstones) need updating.
            tiered_insert(&shared, entry.key, &entry.material, &entry.result, false);
        }
        if let Some(p) = &shared.persist {
            let c = p.counters();
            if c.quarantined > 0 {
                shared.registry.add("server", "quarantined-entries", c.quarantined);
            }
        }
        shared
    }

    /// Has graceful shutdown been requested?
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Insert into the memory tier and mirror the consequences to disk: the
/// new artifact is persisted (unless it came *from* disk) and any entry
/// the LRU pushed out is tombstoned in the journal so the disk tier never
/// resurrects it.
fn tiered_insert(shared: &Shared, key: u64, material: &str, result: &CachedResult, to_disk: bool) {
    // Disk before memory: an eviction can only target a key that is
    // already resident, so writing the entry file (and its `I` journal
    // record) *before* the memory insert guarantees a concurrent
    // evictor's unlink + tombstone always land after this key's write —
    // a restart can never resurrect an entry the LRU already dropped.
    // The inverse race (an entry unlinked while being re-inserted) only
    // loses a disk copy, which degrades to a cold miss, never to a
    // superset.
    if to_disk {
        if let Some(p) = &shared.persist {
            let corrupt = shared.chaos.as_ref().is_some_and(|c| c.corrupt_entry());
            p.record_insert(key, material, result, corrupt);
        }
    }
    let evicted = shared.cache.insert(key, material, result.clone());
    if let Some(victim) = evicted {
        if let Some(p) = &shared.persist {
            p.record_eviction(victim);
        }
    }
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and allocate the shared state (including the
    /// warm-start replay of `--cache-dir`, when configured).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bad address, port in use). Disk problems
    /// never fail the bind — the cache degrades to memory-only instead.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg));
        Ok(Server { listener, local_addr, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Bind and run on a background thread; returns the address and the
    /// join handle (which resolves when the daemon has fully drained).
    ///
    /// # Errors
    ///
    /// See [`Server::bind`].
    pub fn spawn(
        cfg: ServerConfig,
    ) -> std::io::Result<(SocketAddr, JoinHandle<std::io::Result<()>>)> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr();
        Ok((addr, std::thread::spawn(move || server.run())))
    }

    /// Serve until a `SHUTDOWN` request arrives, then drain: the event
    /// loop exits once every connection is quiesced (nothing in flight,
    /// owed, or buffered), and the watchdog joins once the worker pool
    /// has drained the queue.
    ///
    /// # Errors
    ///
    /// Propagates event-loop socket/poller errors.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, local_addr: _, shared } = self;
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        let result = net::EventLoop::new(listener, Arc::clone(&shared))
            .and_then(|mut event_loop| event_loop.run());
        // The SHUTDOWN handler already closed the queue (waking idle
        // workers); close again for the error path, idempotently, so the
        // watchdog's drain condition can be met.
        shared.queue.close();
        let _ = watchdog.join();
        result
    }
}

/// Watchdog census interval: the upper bound on how long a panicked
/// worker's slot stays empty.
const WATCHDOG_TICK: Duration = Duration::from_millis(20);

/// Per-worker heartbeat block, shared between the worker thread and the
/// watchdog.
#[derive(Default)]
struct WorkerState {
    /// Bumped on every dequeue and every completed job.
    epoch: AtomicU64,
    /// Millis-since-server-start when the current job began; 0 = idle.
    busy_since_ms: AtomicU64,
    /// Set just before `worker_loop` returns normally (drain complete),
    /// so the watchdog can tell a drained worker from a crashed one.
    clean_exit: AtomicBool,
}

fn spawn_worker(shared: &Arc<Shared>) -> (Arc<WorkerState>, JoinHandle<()>) {
    let state = Arc::new(WorkerState::default());
    let handle = {
        let shared = Arc::clone(shared);
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("lslpd-worker".into())
            .spawn(move || worker_loop(&shared, &state))
            .expect("spawn a compile worker")
    };
    (state, handle)
}

/// The self-healing supervisor: spawns the worker pool, then once per
/// tick takes a census. A worker that died without its clean-exit flag —
/// a panic, injected or real — is respawned in place while there is still
/// work to serve (`worker-restarts`); a worker stuck on one job past the
/// stall threshold gets a supplementary worker spawned beside it
/// (`worker-stalls`, pool capped at 2× configured). Returns once every
/// worker has exited and the queue is drained.
fn watchdog_loop(shared: &Arc<Shared>) {
    let configured = shared.cfg.workers.max(1);
    let mut slots: Vec<(Arc<WorkerState>, Option<JoinHandle<()>>)> =
        (0..configured).map(|_| spawn_worker(shared)).map(|(s, h)| (s, Some(h))).collect();
    let mut stall_flagged = vec![false; slots.len()];
    shared.workers_alive.store(configured as u64, Ordering::Relaxed);
    loop {
        std::thread::sleep(WATCHDOG_TICK);
        let drained = shared.queue.is_closed() && shared.queue.is_empty();
        let now_ms = shared.started.elapsed().as_millis() as u64;
        let mut alive = 0u64;
        for i in 0..slots.len() {
            let finished = slots[i].1.as_ref().map(JoinHandle::is_finished).unwrap_or(true);
            if !finished {
                alive += 1;
                let busy = slots[i].0.busy_since_ms.load(Ordering::Relaxed);
                if busy > 0 && now_ms.saturating_sub(busy) > shared.cfg.stall_after_ms {
                    if !stall_flagged[i] {
                        stall_flagged[i] = true;
                        shared.registry.add("server", "worker-stalls", 1);
                        if slots.len() < configured * 2 {
                            let (s, h) = spawn_worker(shared);
                            slots.push((s, Some(h)));
                            stall_flagged.push(false);
                        }
                    }
                } else if busy == 0 {
                    stall_flagged[i] = false;
                }
                continue;
            }
            if let Some(handle) = slots[i].1.take() {
                // Collect the thread (and swallow its panic payload — the
                // panic is the fault we are healing from).
                let _ = handle.join();
                if !slots[i].0.clean_exit.load(Ordering::Relaxed) && !drained {
                    shared.registry.add("server", "worker-restarts", 1);
                    let (s, h) = spawn_worker(shared);
                    slots[i] = (s, Some(h));
                    stall_flagged[i] = false;
                    alive += 1;
                }
            }
        }
        shared.workers_alive.store(alive, Ordering::Relaxed);
        if alive == 0 && drained {
            return;
        }
    }
}

/// Answer a control verb synchronously (the event loop serializes the
/// response through the connection's reorder buffer so control answers
/// keep their place among in-flight untagged compiles).
fn control_response(request: &Request, shared: &Shared) -> String {
    match request {
        Request::Hello { proto } => {
            // Every protocol revision so far is a superset of the previous
            // one, so any version up to ours is spoken verbatim.
            if *proto == 0 || *proto > PROTOCOL_VERSION {
                shared.registry.add("server", "errors-proto", 1);
                return Response::err_line(
                    ErrorKind::Proto,
                    &format!("unsupported protocol version {proto} (server speaks 1..={PROTOCOL_VERSION})"),
                );
            }
            Response::ok_line(&[("proto", PROTOCOL_VERSION.to_string())], "lslpd")
        }
        Request::Ping => Response::ok_line(&[], "pong"),
        Request::Health => render_health(shared),
        Request::Stats => {
            let payload = render_stats_payload(shared);
            Response::ok_line(&[], &payload)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Close the queue *now*: this wakes every worker parked on an
            // empty queue, so the drain cannot hang waiting for work that
            // will never come (the run-loop teardown closes again,
            // idempotently). New pushes now fail Closed → ERR shutdown.
            shared.queue.close();
            Response::ok_line(&[], "draining")
        }
        Request::Compile(_) => unreachable!("compiles go through dispatch_compile"),
    }
}

/// Hand one `COMPILE` to the worker queue. `Err` carries the response
/// line to send instead (draining / overload) — the completion handle is
/// disarmed on that path, so no worker-lost report is fabricated.
fn dispatch_compile(
    shared: &Shared,
    req: CompileRequest,
    done: net::Completion,
    decoded: Instant,
) -> Result<(), String> {
    // The queue closes in the SHUTDOWN handler; check the flag too so
    // work arriving after the SHUTDOWN response is refused
    // deterministically, not raced against the drain.
    if shared.is_shutting_down() {
        done.disarm();
        return Err(Response::err_line(ErrorKind::Shutdown, "server is draining"));
    }
    match shared.queue.push(Job { req, done, decoded }) {
        Ok(()) => Ok(()),
        Err(PushError::Full(job)) => {
            job.done.disarm();
            shared.registry.add("server", "rejected-overload", 1);
            Err(Response::err_line(ErrorKind::Overload, "work queue full, retry with backoff"))
        }
        Err(PushError::Closed(job)) => {
            job.done.disarm();
            Err(Response::err_line(ErrorKind::Shutdown, "server is draining"))
        }
    }
}

/// The `HEALTH` response: `draining` once shutdown began, `degraded`
/// when the disk tier failed or the worker pool is empty, else `ready`.
fn render_health(shared: &Shared) -> String {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let disk_degraded = shared.persist.as_ref().is_some_and(PersistentCache::is_degraded);
    let alive = shared.workers_alive.load(Ordering::Relaxed);
    let status = if draining {
        "draining"
    } else if disk_degraded || alive == 0 {
        "degraded"
    } else {
        "ready"
    };
    Response::ok_line(
        &[
            ("status", status.to_string()),
            ("workers-alive", alive.to_string()),
            ("worker-restarts", shared.registry.get("server", "worker-restarts").to_string()),
            ("degraded", u32::from(disk_degraded).to_string()),
            ("connections", shared.net.connections_open.load(Ordering::Relaxed).to_string()),
            ("inflight", shared.net.inflight.load(Ordering::Relaxed).to_string()),
        ],
        "health",
    )
}

/// The `STATS` payload. Counts (`hits`, `misses`, `accepted`,
/// `rejected-conn-limit`, `restarts`, `stalls`) read the same copy of the
/// registry that the rows render from, so they equal the matching
/// `server - ...` rows even under load; everything else on the gauge
/// lines is instantaneous.
fn render_stats_payload(shared: &Shared) -> String {
    let registry = shared.registry.clone();
    let count = |counter: &str| registry.get("server", counter);
    let c = shared.cache.counters();
    let p = shared.persist.as_ref().map(PersistentCache::counters).unwrap_or_default();
    let extra = [
        (
            "cache",
            format!(
                "entries={} capacity={} hits={} misses={} evictions={}",
                c.entries,
                shared.cfg.cache_capacity,
                count("cache-hits"),
                count("cache-misses"),
                c.evictions
            ),
        ),
        (
            "persist",
            format!(
                "enabled={} warm={} quarantined={} disk-errors={} degraded={}",
                u32::from(shared.persist.is_some()),
                p.warm_entries,
                p.quarantined,
                p.disk_errors,
                u32::from(p.degraded),
            ),
        ),
        (
            "queue",
            format!(
                "depth={} max={} capacity={}",
                shared.queue.len(),
                shared.queue.max_depth(),
                shared.queue.capacity()
            ),
        ),
        (
            "net",
            format!(
                "connections-open={} inflight-requests={} pipeline-depth-hwm={} accepted={} rejected-conn-limit={} max-conns={} pipeline-depth={}",
                shared.net.connections_open.load(Ordering::Relaxed),
                shared.net.inflight.load(Ordering::Relaxed),
                shared.net.pipeline_hwm.load(Ordering::Relaxed),
                count("connections-accepted"),
                count("rejected-conn-limit"),
                shared.cfg.max_conns,
                shared.cfg.pipeline_depth,
            ),
        ),
        (
            "workers",
            format!(
                "configured={} alive={} restarts={} stalls={}",
                shared.cfg.workers,
                shared.workers_alive.load(Ordering::Relaxed),
                count("worker-restarts"),
                count("worker-stalls"),
            ),
        ),
        (
            "chaos",
            format!(
                "active={} injected={}",
                u32::from(shared.chaos.is_some()),
                shared.chaos.as_ref().map(Chaos::injected_total).unwrap_or(0),
            ),
        ),
    ];
    metrics::render_stats(&registry, &shared.latency, &extra)
}

/// The nice value compile workers run at. Batch compiles yield the CPU to
/// the event loop (and to co-located normal-priority processes), so a
/// cache hit's wakeups do not wait behind a compile.
const WORKER_NICE: i32 = 10;

/// One worker: drains the queue until close, keeping its heartbeat block
/// current for the watchdog. Runs at [`WORKER_NICE`].
fn worker_loop(shared: &Shared, state: &WorkerState) {
    net::sys::lower_thread_priority(WORKER_NICE);
    while let Some(job) = shared.queue.pop() {
        state.epoch.fetch_add(1, Ordering::Relaxed);
        state
            .busy_since_ms
            .store((shared.started.elapsed().as_millis() as u64).max(1), Ordering::Relaxed);
        if let Some(chaos) = &shared.chaos {
            // An injected mid-compile death: the thread unwinds holding the
            // job, the reply channel drops (the client gets a typed
            // internal error), and the watchdog respawns this worker.
            chaos.maybe_panic_worker();
        }
        let response = compile_request(&job.req, shared, job.decoded);
        state.busy_since_ms.store(0, Ordering::Relaxed);
        state.epoch.fetch_add(1, Ordering::Relaxed);
        // A vanished connection is not a worker error: the loop discards
        // completions whose connection token is stale.
        job.done.send(response);
    }
    state.clean_exit.store(true, Ordering::Relaxed);
}

/// The ordered key-material segments of a request's cache identity: every
/// field that changes the output participates (`tag` does not — it is
/// routing, not content). `target` participates so the same source
/// compiled for two targets yields two distinct cache entries.
fn request_key_parts<'a>(req: &'a CompileRequest, budget_ms: &'a str) -> [&'a str; 8] {
    [
        req.src.as_str(),
        req.config.as_str(),
        req.target.as_deref().unwrap_or("-"),
        if req.pipeline { "1" } else { "0" },
        match req.emit {
            Emit::Ir => "ir",
            Emit::Report => "report",
        },
        req.guard.as_deref().unwrap_or("-"),
        req.packing.as_deref().unwrap_or("-"),
        budget_ms,
    ]
}

/// Inline cache probe for the event loop: a warm hit is answered on the
/// loop thread without a worker round-trip, so a pipelined batch of hits
/// costs one read and one coalesced write instead of a cross-thread
/// ping-pong per request. Returns `None` on a miss, during drain (the
/// dispatch path owns shutdown refusal), and under chaos (the injected
/// worker-death site must stay reachable for every request).
pub(crate) fn cached_fast_path(shared: &Shared, req: &CompileRequest) -> Option<String> {
    if shared.chaos.is_some() || shared.is_shutting_down() {
        return None;
    }
    probe_cache(shared, req, Instant::now()).ok()
}

/// Probe the result cache for `req`. A hit is counted and answered with
/// its `OK cached=hit` line, timed from `start`; a miss returns the key.
fn probe_cache(shared: &Shared, req: &CompileRequest, start: Instant) -> Result<String, u64> {
    let budget_ms = req.timeout_ms.unwrap_or(shared.cfg.default_time_budget_ms).to_string();
    let parts = request_key_parts(req, &budget_ms);
    let key = content_key(&parts);
    let hit = shared.cache.get_parts(key, &parts).ok_or(key)?;
    shared.registry.add("server", "cache-hits", 1);
    shared.registry.add("server", "requests-ok", 1);
    let us = start.elapsed().as_micros() as u64;
    shared.latency.record(us);
    Ok(ok_response(key, "hit", &hit, us))
}

/// Serve one compile request: cache lookup, [`Session`] compile on miss,
/// tiered cache fill, metrics. Latency is timed from `start`, when the
/// request was decoded, so it includes the wait in the queue.
fn compile_request(req: &CompileRequest, shared: &Shared, start: Instant) -> String {
    let key = match probe_cache(shared, req, start) {
        Ok(hit) => return hit,
        Err(key) => key,
    };
    shared.registry.add("server", "cache-misses", 1);
    let budget_ms = req.timeout_ms.unwrap_or(shared.cfg.default_time_budget_ms);
    let material = request_key_parts(req, &budget_ms.to_string()).join("\0");

    // The per-request timeout rides on the guard's compile-fuel budget: the
    // vectorizer stops attempting seeds at the deadline and the function
    // ships (partially) scalar, so a pathological input cannot pin a
    // worker.
    let mut builder = CompileOptions::preset(&req.config).time_budget_ms(budget_ms.max(1));
    if let Some(t) = &req.target {
        builder = builder.target(t);
    }
    if let Some(mode) = &req.guard {
        builder = builder.guard(mode);
    }
    if let Some(p) = &req.packing {
        builder = builder.packing(p);
    }
    if !req.pipeline {
        builder = builder.vectorize_only();
    }
    let opts = match builder.build() {
        Ok(o) => o,
        Err(e) => {
            shared.registry.add("server", "errors-config", 1);
            return Response::err_line(ErrorKind::Config, &e.to_string());
        }
    };
    let artifact = match Session::new(opts).compile(&req.src) {
        Ok(a) => a,
        Err(e) => {
            let (kind, counter) = match e {
                LslpError::Input(_) => (ErrorKind::Parse, "errors-parse"),
                _ => (ErrorKind::Internal, "errors-internal"),
            };
            shared.registry.add("server", counter, 1);
            return Response::err_line(kind, &e.to_string());
        }
    };
    let (module, reports) = (&artifact.module, &artifact.reports);

    let mut trees = 0usize;
    let mut cost = 0i64;
    let mut incidents = 0usize;
    for r in reports {
        trees += r.vectorize.trees_vectorized;
        cost += r.vectorize.applied_cost;
        incidents += r.incidents.len() + r.vectorize.incidents.len();
        shared.registry.absorb(&r.stats);
    }
    if incidents > 0 {
        shared.registry.add("server", "guard-incidents", incidents as u64);
    }

    let output = match req.emit {
        Emit::Ir => lslp_ir::print_module(module),
        Emit::Report => render_report(module, reports),
    };
    let result = CachedResult { output, trees, cost, incidents };
    tiered_insert(shared, key, &material, &result, true);
    shared.registry.add("server", "requests-ok", 1);
    let us = start.elapsed().as_micros() as u64;
    shared.latency.record(us);
    ok_response(key, "miss", &result, us)
}

fn ok_response(key: u64, cached: &str, result: &CachedResult, us: u64) -> String {
    use std::fmt::Write as _;
    // Rendered in one pass into one buffer: this runs for every served
    // request, and the field-vector form of `ok_line` costs six interim
    // strings plus a second payload-sized allocation for the escape.
    let mut line = String::with_capacity(result.output.len() + result.output.len() / 8 + 96);
    let _ = write!(
        line,
        "OK key={key:016x} cached={cached} trees={} cost={} incidents={} us={} out=",
        result.trees, result.cost, result.incidents, us
    );
    protocol::escape_into(&mut line, &result.output);
    line
}

/// The `emit=report` payload: one summary line per function plus incident
/// lines (mirrors `lslpc --emit report` at service granularity).
fn render_report(module: &lslp_ir::Module, reports: &[PipelineReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (f, pr) in module.functions.iter().zip(reports) {
        let r = &pr.vectorize;
        let _ = writeln!(
            out,
            "@{}: {} attempt(s), {} vectorized, applied cost {}, {} incident(s)",
            f.name(),
            r.attempts.len(),
            r.trees_vectorized,
            r.applied_cost,
            pr.incidents.len() + r.incidents.len(),
        );
        for inc in r.incidents.iter().chain(&pr.incidents) {
            let _ = writeln!(out, "  incident {inc}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    const SRC: &str = "kernel k(f64* A, f64* B, i64 i) {
                           A[i+0] = B[i+0] * B[i+0];
                           A[i+1] = B[i+1] * B[i+1];
                           A[i+2] = B[i+2] * B[i+2];
                           A[i+3] = B[i+3] * B[i+3];
                       }";

    fn shared() -> Shared {
        Shared::new(ServerConfig { workers: 1, ..ServerConfig::default() })
    }

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lslp-server-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run(req: &CompileRequest, shared: &Shared) -> Response {
        Response::parse(&compile_request(req, shared, Instant::now())).unwrap()
    }

    #[test]
    fn compile_vectorizes_and_reports_fields() {
        let s = shared();
        let r = run(&CompileRequest::new(SRC), &s);
        assert!(r.ok, "{r:?}");
        assert_eq!(r.field("cached"), Some("miss"));
        assert_eq!(r.field("trees"), Some("1"));
        assert_eq!(r.field("incidents"), Some("0"));
        assert!(r.payload.contains("<4 x f64>"), "{}", r.payload);
        assert_eq!(s.registry.get("server", "requests-ok"), 1);
        assert_eq!(s.registry.get("server", "cache-misses"), 1);
        assert!(s.registry.get("vectorize", "trees-vectorized") >= 1, "pipeline stats absorbed");
    }

    #[test]
    fn second_request_hits_the_cache_byte_identically() {
        let s = shared();
        let first = run(&CompileRequest::new(SRC), &s);
        let second = run(&CompileRequest::new(SRC), &s);
        assert_eq!(second.field("cached"), Some("hit"));
        assert_eq!(first.payload, second.payload, "cache must serve identical bytes");
        assert_eq!(first.field("trees"), second.field("trees"));
        assert_eq!(s.registry.get("server", "cache-misses"), 1, "exactly one miss");
        assert_eq!(s.registry.get("server", "cache-hits"), 1, "exactly one hit");
    }

    #[test]
    fn differing_config_does_not_hit() {
        let s = shared();
        let lslp = run(&CompileRequest::new(SRC), &s);
        let o3 = run(&CompileRequest { config: "O3".into(), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(o3.field("cached"), Some("miss"), "different config is a different key");
        assert_ne!(lslp.payload, o3.payload);
        assert_eq!(s.registry.get("server", "cache-hits"), 0);
        assert_eq!(s.registry.get("server", "cache-misses"), 2);
    }

    #[test]
    fn target_participates_in_the_cache_key() {
        // Same source, two targets: two cache entries with byte-distinct
        // artifacts (the 4×f64 chain fits one avx2 register but needs two
        // sse4.2-sized stores).
        let s = shared();
        let avx2 = run(&CompileRequest::new(SRC), &s);
        let sse =
            run(&CompileRequest { target: Some("sse4.2".into()), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(avx2.field("cached"), Some("miss"));
        assert_eq!(sse.field("cached"), Some("miss"), "different target is a different key");
        assert_ne!(avx2.field("key"), sse.field("key"));
        assert_ne!(avx2.payload, sse.payload, "artifacts must differ per target");
        assert!(avx2.payload.contains("<4 x f64>"), "{}", avx2.payload);
        assert!(sse.payload.contains("<2 x f64>"), "{}", sse.payload);
        assert_eq!(s.registry.get("server", "cache-misses"), 2);
        // Repeats of both hit their own entries.
        assert_eq!(run(&CompileRequest::new(SRC), &s).field("cached"), Some("hit"));
        let sse2 =
            run(&CompileRequest { target: Some("sse4.2".into()), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(sse2.field("cached"), Some("hit"));
        assert_eq!(sse2.payload, sse.payload);
        assert_eq!(s.registry.get("server", "cache-hits"), 2);
    }

    #[test]
    fn packing_participates_in_the_cache_key() {
        // Same source under greedy and global packing: distinct cache
        // entries, even when the artifacts agree (the strategy changes
        // what the compiler *may* emit, so it must key the cache).
        let s = shared();
        let greedy = run(&CompileRequest::new(SRC), &s);
        let global =
            run(&CompileRequest { packing: Some("global".into()), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(greedy.field("cached"), Some("miss"));
        assert_eq!(global.field("cached"), Some("miss"), "different packing is a different key");
        assert_ne!(greedy.field("key"), global.field("key"));
        assert!(global.ok, "{global:?}");
        assert!(global.payload.contains("<4 x f64>"), "{}", global.payload);
        assert_eq!(s.registry.get("server", "cache-misses"), 2);
        // Both repeat warm against their own entries.
        let again =
            run(&CompileRequest { packing: Some("global".into()), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(again.field("cached"), Some("hit"));
        assert_eq!(again.payload, global.payload);
    }

    #[test]
    fn unknown_target_is_a_config_error() {
        let s = shared();
        let r =
            run(&CompileRequest { target: Some("itanium".into()), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(r.error, Some(ErrorKind::Config), "{r:?}");
        assert!(r.payload.contains("unknown target"), "{}", r.payload);
    }

    fn control(line: &str, s: &Shared) -> Response {
        let req = protocol::parse_request(line).unwrap();
        Response::parse(&control_response(&req, s)).unwrap()
    }

    #[test]
    fn hello_negotiates_the_protocol_version() {
        let s = shared();
        let ok = control("HELLO proto=5", &s);
        assert!(ok.ok, "{ok:?}");
        assert_eq!(ok.field("proto"), Some("5"));
        assert_eq!(ok.payload, "lslpd");
        for older in ["HELLO proto=1", "HELLO proto=2", "HELLO proto=3", "HELLO proto=4"] {
            let r = control(older, &s);
            assert!(r.ok, "older versions are spoken too: {r:?}");
            assert_eq!(r.field("proto"), Some("5"), "server always states its own version");
        }
        for bad in ["HELLO proto=99", "HELLO proto=0"] {
            let r = control(bad, &s);
            assert_eq!(r.error, Some(ErrorKind::Proto), "{bad}: {r:?}");
        }
    }

    #[test]
    fn user_errors_are_typed() {
        let s = shared();
        let parse = run(&CompileRequest::new("kernel broken("), &s);
        assert_eq!(parse.error, Some(ErrorKind::Parse), "{parse:?}");
        let config = run(&CompileRequest { config: "GCC".into(), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(config.error, Some(ErrorKind::Config));
        let guard =
            run(&CompileRequest { guard: Some("yolo".into()), ..CompileRequest::new(SRC) }, &s);
        assert_eq!(guard.error, Some(ErrorKind::Config));
        assert_eq!(s.registry.get("server", "errors-parse"), 1);
        assert_eq!(s.registry.get("server", "errors-config"), 2);
    }

    #[test]
    fn guard_strategy_spellings_are_config_errors() {
        // The rollback strategies are reference oracles on
        // `VectorizerConfig::rollback`, not guard modes: the options
        // builder rejects them like any unknown mode.
        let s = shared();
        for mode in ["snapshot", "differential"] {
            let r =
                run(&CompileRequest { guard: Some(mode.into()), ..CompileRequest::new(SRC) }, &s);
            assert_eq!(r.error, Some(ErrorKind::Config), "guard={mode}: {r:?}");
            assert!(r.payload.contains(&format!("unknown guard mode `{mode}`")), "{}", r.payload);
        }
        assert_eq!(s.registry.get("server", "errors-config"), 2);
        let r =
            run(&CompileRequest { guard: Some("rollback".into()), ..CompileRequest::new(SRC) }, &s);
        assert!(r.ok, "guard=rollback: {r:?}");
        assert!(r.payload.contains("<4 x f64>"), "guard=rollback vectorizes");
    }

    #[test]
    fn exhausted_budget_degrades_to_scalar_output() {
        // timeout-ms=1 with an already-spent deadline is hard to force
        // deterministically, so use a large kernel and the smallest budget:
        // the vectorizer must stop at the deadline, ship what it has, and
        // record an incident — never an error response.
        let mut src = String::from("kernel big(f64* A, f64* B, i64 i) {\n");
        for g in 0..64 {
            for l in 0..4 {
                let idx = g * 4 + l;
                src.push_str(&format!(
                    "  A[i+{idx}] = (B[i+{idx}] * B[i+{idx}] + {g}.0) * B[i+{idx}];\n"
                ));
            }
        }
        src.push('}');
        let s = shared();
        let r = run(&CompileRequest { timeout_ms: Some(0), ..CompileRequest::new(&src) }, &s);
        assert!(r.ok, "a timed-out compile still responds: {r:?}");
        // Budget 0 is clamped to 1ms; the compile may or may not finish
        // within it, but the response is always well-formed IR.
        assert!(r.payload.contains("@big"), "{}", r.payload);
    }

    #[test]
    fn shutdown_closes_the_queue_eagerly() {
        // The queue must close in the SHUTDOWN handler itself — not when
        // the event loop notices the flag — so workers blocked on an empty
        // queue wake immediately and the drain cannot hang.
        let s = shared();
        assert!(!s.queue.is_closed());
        let r = control("SHUTDOWN", &s);
        assert_eq!(r.payload, "draining");
        assert!(s.queue.is_closed(), "SHUTDOWN closes the queue in its own handler");
        let refused = dispatch_compile(
            &s,
            CompileRequest::new(SRC),
            net::detached_completion(),
            Instant::now(),
        )
        .expect_err("compiles are refused while draining");
        let again = Response::parse(&refused).unwrap();
        assert_eq!(again.error, Some(ErrorKind::Shutdown));
    }

    #[test]
    fn health_reports_ready_then_draining() {
        let s = shared();
        s.workers_alive.store(1, Ordering::Relaxed);
        let h = control("HEALTH", &s);
        assert!(h.ok, "{h:?}");
        assert_eq!(h.field("status"), Some("ready"));
        assert_eq!(h.field("degraded"), Some("0"));
        assert_eq!(h.field("workers-alive"), Some("1"));
        assert_eq!(h.field("connections"), Some("0"), "connection gauge surfaces in HEALTH");
        control("SHUTDOWN", &s);
        let h = control("HEALTH", &s);
        assert_eq!(h.field("status"), Some("draining"));
    }

    #[test]
    fn persistent_tier_warms_a_fresh_instance() {
        let dir = temp_dir("warm");
        let cfg = || ServerConfig {
            workers: 1,
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let s1 = Shared::new(cfg());
        let first = run(&CompileRequest::new(SRC), &s1);
        assert_eq!(first.field("cached"), Some("miss"));
        drop(s1); // no clean handoff: the disk state alone must suffice

        let s2 = Shared::new(cfg());
        let c = s2.persist.as_ref().unwrap().counters();
        assert_eq!(c.warm_entries, 1, "restart recovered the entry");
        assert_eq!(c.quarantined, 0);
        let warm = run(&CompileRequest::new(SRC), &s2);
        assert_eq!(warm.field("cached"), Some("hit"), "warm start serves from cache");
        assert_eq!(warm.payload, first.payload, "byte-identical across restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_storm_tombstones_the_disk_tier() {
        // Tiny memory capacity + distinct requests: every LRU eviction
        // must tombstone the journal and unlink its entry file, so a
        // restart recovers exactly the resident set, never a superset.
        let dir = temp_dir("storm");
        let cfg = || ServerConfig {
            workers: 1,
            cache_capacity: 4,
            cache_shards: 1,
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        };
        let s = Shared::new(cfg());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..4u64 {
                        let n = t * 4 + i;
                        let src = format!(
                            "kernel k{n}(f64* A, f64* B, i64 i) {{\n  A[i+0] = B[i+0] + {n}.0;\n  A[i+1] = B[i+1] + {n}.0;\n}}"
                        );
                        let r = Response::parse(&compile_request(&CompileRequest::new(&src), s, Instant::now()))
                            .unwrap();
                        assert!(r.ok, "{r:?}");
                    }
                });
            }
        });
        let evictions = s.cache.counters().evictions;
        assert!(evictions > 0, "16 distinct requests over 4 slots must evict");
        let journal = persist::read_journal(&dir);
        assert_eq!(
            journal.matches("\nT ").count() + usize::from(journal.starts_with("T ")),
            evictions as usize,
            "every eviction tombstoned exactly once:\n{journal}"
        );
        let (stamps, clock) = s.cache.debug_stamps();
        assert!(stamps.iter().all(|&st| st < clock), "stamps monotone under churn");
        drop(s);

        // Restart: the survivors come back, the tombstoned entries do not.
        let s2 = Shared::new(cfg());
        let c = s2.persist.as_ref().unwrap().counters();
        assert!(c.warm_entries <= 4, "no resurrection past capacity: {}", c.warm_entries);
        assert_eq!(c.quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_dump_includes_resilience_gauges() {
        let s = shared();
        let dump = render_stats_payload(&s);
        let persist_at = dump.find("persist: enabled=0").expect("persist gauge row");
        let workers_at = dump.find("workers: configured=1 alive=0 restarts=0 stalls=0").unwrap();
        let chaos_at = dump.find("chaos: active=0 injected=0").unwrap();
        assert!(persist_at < workers_at && workers_at < chaos_at, "fixed gauge order:\n{dump}");
        assert_eq!(render_stats_payload(&s), dump, "dump is deterministic");
    }
}
