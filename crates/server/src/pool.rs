//! A bounded connection pool over [`Client`] plus a pipelined batch
//! compile API.
//!
//! The pool dials lazily and re-uses connections across acquisitions:
//!
//! * **acquire/release** — [`Pool::acquire`] hands out a [`PooledClient`]
//!   guard that returns its connection on drop; at `max_size` checked-out
//!   connections it blocks until one comes back;
//! * **idle reaping** — connections idle past `idle_timeout` are closed
//!   instead of re-used (the reap is lazy, on the next acquire);
//! * **health-checked reuse** — a connection idle past
//!   `health_check_after` is `PING`ed before being handed out and
//!   replaced if the probe fails;
//! * **broken-connection eviction** — callers mark a connection broken
//!   ([`PooledClient::mark_broken`]) and it is dropped instead of pooled.
//!
//! [`Pool::compile_many`] fans a batch of requests across pooled
//! connections, pipelining up to `depth` tagged in-flight requests per
//! connection (protocol v4) with per-request deadlines and the same
//! retry/backoff/reconnect policy as [`Client::retry_line`]. Keep
//! `depth` at or below the server's `--pipeline-depth`; a deeper client
//! window is safe but the surplus just waits in socket buffers.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::client::{retryable, Client, ClientError, RetryOutcome, RetryPolicy};
use crate::protocol::{CompileRequest, Response};

/// Pool tunables.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Maximum connections alive at once (pooled + checked out).
    pub max_size: usize,
    /// An idle pooled connection older than this is closed on the next
    /// acquire instead of re-used.
    pub idle_timeout: Duration,
    /// An idle pooled connection older than this is `PING`ed before
    /// re-use and replaced if the probe fails.
    pub health_check_after: Duration,
}

impl PoolConfig {
    /// Defaults: 8 connections, 60 s idle reap, health checks after 5 s.
    pub fn new(addr: impl Into<String>) -> PoolConfig {
        PoolConfig {
            addr: addr.into(),
            max_size: 8,
            idle_timeout: Duration::from_secs(60),
            health_check_after: Duration::from_secs(5),
        }
    }
}

/// Monotonic pool activity counters (for load-generator reporting).
#[derive(Default)]
pub struct PoolCounters {
    /// Fresh connections dialed.
    pub created: AtomicU64,
    /// Acquisitions served by a pooled connection.
    pub reused: AtomicU64,
    /// Idle connections closed by the reap.
    pub reaped_idle: AtomicU64,
    /// Connections dropped after being marked broken or failing their
    /// health probe.
    pub evicted_broken: AtomicU64,
    /// Health probes sent before re-use.
    pub health_checks: AtomicU64,
}

struct IdleConn {
    client: Client,
    since: Instant,
}

struct PoolState {
    idle: Vec<IdleConn>,
    /// Connections alive: pooled + checked out.
    total: usize,
}

/// A bounded, health-checked connection pool.
pub struct Pool {
    cfg: PoolConfig,
    state: Mutex<PoolState>,
    returned: Condvar,
    counters: PoolCounters,
}

impl Pool {
    /// Create an empty pool (connections are dialed on demand).
    pub fn new(cfg: PoolConfig) -> Pool {
        Pool {
            cfg,
            state: Mutex::new(PoolState { idle: Vec::new(), total: 0 }),
            returned: Condvar::new(),
            counters: PoolCounters::default(),
        }
    }

    /// The pool's activity counters.
    pub fn counters(&self) -> &PoolCounters {
        &self.counters
    }

    /// Check out a connection: re-use a healthy pooled one, dial a fresh
    /// one under the size limit, or block until a checkout returns.
    ///
    /// # Errors
    ///
    /// Propagates dial failures (the slot is released, so a later
    /// acquire may succeed once the daemon is back).
    pub fn acquire(&self) -> std::io::Result<PooledClient<'_>> {
        let mut state = self.state.lock().expect("pool lock");
        loop {
            // Lazy idle reap: drop from the cold end first.
            let now = Instant::now();
            let before = state.idle.len();
            state.idle.retain(|c| now.duration_since(c.since) < self.cfg.idle_timeout);
            let reaped = before - state.idle.len();
            if reaped > 0 {
                state.total -= reaped;
                self.counters.reaped_idle.fetch_add(reaped as u64, Ordering::Relaxed);
            }

            if let Some(mut idle) = state.idle.pop() {
                let needs_probe = now.duration_since(idle.since) >= self.cfg.health_check_after;
                if !needs_probe {
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(PooledClient {
                        pool: self,
                        client: Some(idle.client),
                        broken: false,
                    });
                }
                // Probe outside the lock: a slow/dead daemon must not
                // serialize every other acquire behind this one.
                drop(state);
                self.counters.health_checks.fetch_add(1, Ordering::Relaxed);
                let prior_timeout = Some(Duration::from_secs(1));
                let healthy = idle.client.set_timeout(prior_timeout).is_ok()
                    && idle.client.ping().is_ok_and(|r| r.ok);
                state = self.state.lock().expect("pool lock");
                if healthy {
                    let _ = idle.client.set_timeout(None);
                    self.counters.reused.fetch_add(1, Ordering::Relaxed);
                    return Ok(PooledClient {
                        pool: self,
                        client: Some(idle.client),
                        broken: false,
                    });
                }
                state.total -= 1;
                self.counters.evicted_broken.fetch_add(1, Ordering::Relaxed);
                continue; // try the next idle conn / dial / wait
            }

            if state.total < self.cfg.max_size {
                state.total += 1;
                drop(state); // dial outside the lock
                match Client::connect(&self.cfg.addr) {
                    Ok(client) => {
                        self.counters.created.fetch_add(1, Ordering::Relaxed);
                        return Ok(PooledClient {
                            pool: self,
                            client: Some(client),
                            broken: false,
                        });
                    }
                    Err(e) => {
                        let mut state = self.state.lock().expect("pool lock");
                        state.total -= 1;
                        drop(state);
                        self.returned.notify_one();
                        return Err(e);
                    }
                }
            }

            state = self.returned.wait(state).expect("pool lock");
        }
    }

    fn release(&self, client: Option<Client>, broken: bool) {
        let mut state = self.state.lock().expect("pool lock");
        match client {
            Some(client) if !broken => {
                state.idle.push(IdleConn { client, since: Instant::now() });
            }
            _ => {
                state.total -= 1;
                if broken {
                    self.counters.evicted_broken.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(state);
        self.returned.notify_one();
    }

    /// Compile a batch: requests fan out across up to `max_size` pooled
    /// connections, each pipelining up to `depth` tagged requests
    /// (protocol v4, out-of-order completion). Every request gets its own
    /// deadline/retry budget from `policy`; the returned outcomes are in
    /// input order. Requests that carry no tag are assigned `b{index}`.
    pub fn compile_many(
        &self,
        reqs: &[CompileRequest],
        depth: usize,
        policy: &RetryPolicy,
    ) -> Vec<RetryOutcome> {
        let depth = depth.max(1);
        let conns = self.cfg.max_size.clamp(1, reqs.len().div_ceil(depth).max(1));
        let mut outcomes: Vec<Option<RetryOutcome>> = Vec::with_capacity(reqs.len());
        outcomes.resize_with(reqs.len(), || None);
        let chunks: Vec<Vec<usize>> =
            (0..conns).map(|c| (c..reqs.len()).step_by(conns).collect()).collect();
        let results = Mutex::new(&mut outcomes);
        std::thread::scope(|scope| {
            for chunk in chunks {
                if chunk.is_empty() {
                    continue;
                }
                let results = &results;
                scope.spawn(move || {
                    let done = self.run_pipelined(reqs, &chunk, depth, policy);
                    let mut results = results.lock().expect("results lock");
                    for (idx, outcome) in done {
                        results[idx] = Some(outcome);
                    }
                });
            }
        });
        outcomes.into_iter().map(|o| o.expect("every request resolved")).collect()
    }

    /// Drive one connection's share of the batch: a sliding window of
    /// `depth` tagged in-flight requests, retry/backoff per request,
    /// reconnect-and-resend on transport failure.
    fn run_pipelined(
        &self,
        reqs: &[CompileRequest],
        chunk: &[usize],
        depth: usize,
        policy: &RetryPolicy,
    ) -> Vec<(usize, RetryOutcome)> {
        let mut results: Vec<(usize, RetryOutcome)> = Vec::with_capacity(chunk.len());
        let now = Instant::now();
        let mut pending: VecDeque<FlightRecord> = chunk
            .iter()
            .map(|&idx| FlightRecord {
                idx,
                attempts: 0,
                reconnects: 0,
                started: now,
                not_before: now,
            })
            .collect();

        let mut conn = match self.acquire() {
            Ok(c) => c,
            Err(_) => {
                // The daemon is unreachable; fail the whole chunk the way
                // retry_line reports transport death.
                return pending
                    .into_iter()
                    .map(|f| {
                        (
                            f.idx,
                            RetryOutcome {
                                response: None,
                                attempts: f.attempts.max(1),
                                reconnects: 0,
                                gave_up: true,
                                elapsed: f.started.elapsed(),
                            },
                        )
                    })
                    .collect();
            }
        };
        // Short ticks so per-request deadlines and backoff releases are
        // observed while blocked on slow responses.
        let _ = conn.set_timeout(Some(Duration::from_millis(20)));

        let mut inflight: HashMap<String, FlightRecord> = HashMap::new();
        let mut partial = String::new();
        let mut batch = String::new();
        let mut last_expire = Instant::now();
        while !pending.is_empty() || !inflight.is_empty() {
            let now = Instant::now();

            // Expire in-flight requests past their deadline: record the
            // give-up and forget the tag (a late response is discarded).
            // Deadlines are clock-bound, so this O(window) scan runs at
            // most every 20 ms, not once per response.
            if let Some(deadline) = policy
                .deadline
                .filter(|_| now.duration_since(last_expire) >= Duration::from_millis(20))
            {
                last_expire = now;
                let expired: Vec<String> = inflight
                    .iter()
                    .filter(|(_, f)| now.duration_since(f.started) >= deadline)
                    .map(|(t, _)| t.clone())
                    .collect();
                for tag in expired {
                    let f = inflight.remove(&tag).expect("expired tag in flight");
                    results.push((
                        f.idx,
                        RetryOutcome {
                            response: None,
                            attempts: f.attempts,
                            reconnects: f.reconnects,
                            gave_up: true,
                            elapsed: f.started.elapsed(),
                        },
                    ));
                }
            }

            // Fill the window with released pending requests — the whole
            // refill renders into one buffer and goes out in one write.
            // Hysteresis: wait until the window has drained to half before
            // topping up, so steady-state refills are depth/2-sized batches
            // rather than echoing back whatever trickle just settled.
            let mut transport_down = false;
            let mut batched = 0usize;
            batch.clear();
            let room = if inflight.len() * 2 <= depth { depth - inflight.len() } else { 0 };
            while batched < room {
                let ready = pending.front().is_some_and(|f| f.not_before <= now);
                if !ready {
                    break;
                }
                let mut f = pending.pop_front().expect("front checked");
                f.attempts += 1;
                if f.attempts == 1 {
                    // Latency is measured from the first send, not from
                    // batch admission (a deep chunk parks records here for
                    // a long time before the window reaches them).
                    f.started = Instant::now();
                }
                let tag = batch_tag(reqs, f.idx);
                reqs[f.idx].line_into(Some(&tag), &mut batch);
                batch.push('\n');
                batched += 1;
                inflight.insert(tag, f);
            }
            if batched > 0 && conn.send_batch(&batch).is_err() {
                // The batched records are already in `inflight`; the
                // transport path below resends them.
                transport_down = true;
            }

            // Collect responses: block up to one 20 ms tick for the first,
            // then sweep every response already sitting in the read buffer
            // — a whole burst costs one read syscall.
            if !transport_down && !inflight.is_empty() {
                loop {
                    match conn.recv_line_step(&mut partial) {
                        Ok(Some(resp)) => {
                            let flight = resp.tag().and_then(|t| inflight.remove(t));
                            if let Some(f) = flight {
                                settle(resp, f, policy, &mut pending, &mut results);
                            }
                            // Untagged or already-expired responses fall
                            // through: nothing is waiting on them.
                            if inflight.is_empty() || !conn.has_buffered_response() {
                                break;
                            }
                        }
                        Ok(None) => break, // tick: re-check deadlines/backoffs
                        Err(ClientError::Protocol(_)) | Err(ClientError::Io(_)) => {
                            // A garbled response line desyncs the stream;
                            // either way the transport is dead — resend the
                            // in-flight work on a fresh connection.
                            transport_down = true;
                            break;
                        }
                    }
                }
            }

            if transport_down {
                partial.clear();
                conn.mark_broken();
                drop(conn);
                // In-flight requests go back to the front of the queue;
                // their attempts already counted the send that died.
                let mut resent: Vec<FlightRecord> = inflight.drain().map(|(_, f)| f).collect();
                resent.sort_by_key(|f| f.idx);
                for f in resent.into_iter().rev() {
                    pending.push_front(f);
                }
                let reconnect_deadline = policy.deadline;
                conn = loop {
                    match self.acquire() {
                        Ok(mut c) => {
                            let _ = c.set_timeout(Some(Duration::from_millis(20)));
                            for f in pending.iter_mut() {
                                f.reconnects += 1;
                            }
                            break c;
                        }
                        Err(_) => {
                            // Dial failed (daemon mid-restart): give up on
                            // requests past deadline, keep trying briefly.
                            let now = Instant::now();
                            let all_expired = reconnect_deadline.is_some_and(|d| {
                                pending.iter().all(|f| now.duration_since(f.started) >= d)
                            });
                            if all_expired {
                                return results
                                    .into_iter()
                                    .chain(pending.into_iter().map(|f| {
                                        (
                                            f.idx,
                                            RetryOutcome {
                                                response: None,
                                                attempts: f.attempts.max(1),
                                                reconnects: f.reconnects,
                                                gave_up: true,
                                                elapsed: f.started.elapsed(),
                                            },
                                        )
                                    }))
                                    .collect();
                            }
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                };
                continue;
            }

            if inflight.is_empty() && pending.front().is_some_and(|f| f.not_before > now) {
                // Nothing on the wire; sleep out the nearest backoff.
                let wake = pending.iter().map(|f| f.not_before).min().expect("pending non-empty");
                std::thread::sleep(
                    wake.saturating_duration_since(now).min(Duration::from_millis(50)),
                );
            }
        }
        results
    }
}

/// Resolve one tagged response against its flight record: final
/// outcomes are recorded, retryable errors go back to the pending
/// queue with jittered exponential backoff (unless the budget or
/// deadline ran out).
fn settle(
    resp: Response,
    f: FlightRecord,
    policy: &RetryPolicy,
    pending: &mut VecDeque<FlightRecord>,
    results: &mut Vec<(usize, RetryOutcome)>,
) {
    if !retryable(&resp) {
        results.push((
            f.idx,
            RetryOutcome {
                response: Some(resp),
                attempts: f.attempts,
                reconnects: f.reconnects,
                gave_up: false,
                elapsed: f.started.elapsed(),
            },
        ));
        return;
    }
    let now = Instant::now();
    let over_budget = f.attempts > policy.max_retries;
    let delay = policy.backoff(f.attempts, f.idx as u64 * 31 + f.attempts as u64);
    let over_deadline = policy.deadline.is_some_and(|d| now.duration_since(f.started) + delay >= d);
    if over_budget || over_deadline {
        results.push((
            f.idx,
            RetryOutcome {
                response: Some(resp),
                attempts: f.attempts,
                reconnects: f.reconnects,
                gave_up: true,
                elapsed: f.started.elapsed(),
            },
        ));
        return;
    }
    let mut f = f;
    f.not_before = now + delay;
    pending.push_back(f);
}

/// The flight record `run_pipelined` threads through `settle`.
struct FlightRecord {
    idx: usize,
    attempts: u32,
    reconnects: u32,
    started: Instant,
    not_before: Instant,
}

/// The deterministic tag `compile_many` puts on request `idx` when the
/// caller did not choose one.
fn batch_tag(reqs: &[CompileRequest], idx: usize) -> String {
    reqs[idx].tag.clone().unwrap_or_else(|| format!("b{idx}"))
}

/// A checked-out connection; returns to the pool on drop unless marked
/// broken.
pub struct PooledClient<'a> {
    pool: &'a Pool,
    client: Option<Client>,
    broken: bool,
}

impl PooledClient<'_> {
    /// Evict this connection instead of pooling it (transport died, or
    /// the stream state is suspect).
    pub fn mark_broken(&mut self) {
        self.broken = true;
    }
}

impl std::ops::Deref for PooledClient<'_> {
    type Target = Client;
    fn deref(&self) -> &Client {
        self.client.as_ref().expect("live pooled client")
    }
}

impl std::ops::DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("live pooled client")
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        self.pool.release(self.client.take(), self.broken);
    }
}
