//! `lslp-net`: the readiness-driven serving layer.
//!
//! One thread owns every connection. It parks in [`sys::poll_wait`] over
//! the listener, a self-wakeup channel, and each live connection's
//! descriptor (read interest gated by pipeline depth and write
//! backlog, write interest only while bytes are queued), then:
//!
//! * **accepts** new connections — beyond `--max-conns` they get one
//!   `ERR kind=overload` line and are closed;
//! * **decodes** complete frames from readable connections and either
//!   answers control verbs inline or dispatches `COMPILE`s to the
//!   existing bounded queue + worker pool, attaching a [`Completion`]
//!   handle that routes the response back here;
//! * **applies** completions: tagged responses are written as they
//!   arrive (out of order), untagged ones flow through the
//!   per-connection serial reorder buffer so v1–v3 clients still see
//!   strict FIFO;
//! * **flushes** write buffers as sockets accept bytes.
//!
//! Workers never touch sockets and the loop never compiles: the
//! [`Completion`] handle is the entire seam. Dropping one unsent (a
//! worker panic mid-compile) reports the job as worker-lost, so the
//! client gets the same typed retryable `ERR` the thread-per-connection
//! design produced — never a hang.
//!
//! Chaos sites moved here with the I/O they fault: `accept-drop` at
//! accept, `read-drop` after a complete frame decode, `write-drop` and
//! `delay` when a response is enqueued — `delay` gates the connection's
//! flush instead of sleeping, so an injected delay never stalls the
//! loop or other connections.

pub mod conn;
pub mod sys;

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::protocol::{self, ErrorKind, Request, Response, PROTOCOL_VERSION};
use crate::Shared;
use conn::{Conn, ReadEvent, WRITE_HARD_LIMIT};
use sys::{PollFd, WakeReader, Waker};

/// Generational connection identity: a slot index plus the generation it
/// was issued under, so a completion for a reaped connection can never be
/// delivered to the slot's next tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    idx: usize,
    gen: u64,
}

/// Where a response line is delivered on its connection.
#[derive(Clone, Debug)]
pub enum Route {
    /// v4 tagged request: write immediately, tag echoed.
    Tag(String),
    /// Untagged request: release through the serial reorder buffer.
    Serial(u64),
}

/// A completed (or lost) job traveling from a worker to the loop.
struct CompletionMsg {
    token: Token,
    route: Route,
    /// `None` = the worker died holding the job (worker-lost).
    line: Option<String>,
}

/// The reply half of a dispatched job: workers call [`Completion::send`]
/// exactly once. Dropping it unsent reports the job worker-lost, which
/// the loop turns into the typed retryable internal `ERR` — the event
/// never goes missing, whatever path the worker thread takes out.
pub struct Completion {
    token: Token,
    route: Option<Route>,
    tx: mpsc::Sender<CompletionMsg>,
    waker: Waker,
    wake_pending: Arc<AtomicBool>,
}

impl Completion {
    /// Deliver the response line for this job.
    pub fn send(mut self, line: String) {
        if let Some(route) = self.route.take() {
            let _ = self.tx.send(CompletionMsg { token: self.token, route, line: Some(line) });
            self.wake();
        }
    }

    /// Consume the handle without reporting worker-lost (the dispatch
    /// itself failed and the caller already answered the client).
    pub fn disarm(mut self) {
        self.route = None;
    }

    /// Wake the loop, coalescing: a burst of completions costs one wakeup
    /// syscall, not one per job. The flag is set *after* the channel send
    /// and cleared by the loop *before* it drains, so a completion can
    /// never slip between a drain and the next poll unannounced.
    fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            self.waker.wake();
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(route) = self.route.take() {
            let _ = self.tx.send(CompletionMsg { token: self.token, route, line: None });
            self.wake();
        }
    }
}

/// Loop-owned gauges surfaced through `STATS` (`net:` row) and `HEALTH`.
/// These rise *and* fall (or track a high-water mark), so they live
/// outside the monotonic [`lslp::Statistics`] registry, which keeps the
/// accepted and refused connection counts.
#[derive(Default)]
pub struct NetGauges {
    /// Connections currently registered with the poller.
    pub connections_open: AtomicU64,
    /// Dispatched-but-unanswered compiles across all connections.
    pub inflight: AtomicU64,
    /// High-water mark of any single connection's in-flight count.
    pub pipeline_hwm: AtomicU64,
}

/// One registered connection plus its loop-side bookkeeping.
struct Slot {
    conn: Conn,
    token: Token,
    /// Frames decoded but not yet processed (a read burst can outrun the
    /// pipeline-depth budget; the surplus parks here and [`EventLoop::pump`]
    /// drains it as completions free depth).
    pending: VecDeque<String>,
    /// Protocol violation observed: flush what is owed, then close.
    poisoned: bool,
}

/// How long the poller may sleep with nothing to do. Completions cut it
/// short via the waker; it only bounds how quickly an expired chaos
/// write gate is noticed.
const POLL_TICK: Duration = Duration::from_millis(100);

/// The event loop. [`EventLoop::run`] serves until shutdown has been
/// requested *and* every connection is quiesced (nothing in flight,
/// nothing owed, nothing buffered).
pub struct EventLoop {
    listener: TcpListener,
    shared: Arc<Shared>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_gen: u64,
    waker: Waker,
    wake_rx: WakeReader,
    /// Completion-wakeup coalescing flag shared with every [`Completion`].
    wake_pending: Arc<AtomicBool>,
    tx: mpsc::Sender<CompletionMsg>,
    rx: mpsc::Receiver<CompletionMsg>,
}

/// What a poll-set entry maps back to.
enum PollTarget {
    Listener,
    WakeChannel,
    Connection(usize),
}

impl EventLoop {
    /// Wrap a bound listener (made nonblocking here).
    ///
    /// # Errors
    ///
    /// Propagates nonblocking-mode and waker-creation failures.
    pub fn new(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = Waker::pair()?;
        let (tx, rx) = mpsc::channel();
        Ok(EventLoop {
            listener,
            shared,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            waker,
            wake_rx,
            wake_pending: Arc::new(AtomicBool::new(false)),
            tx,
            rx,
        })
    }

    /// Serve until drained. See the module docs for the per-iteration
    /// shape.
    ///
    /// # Errors
    ///
    /// Propagates poller failures (`poll(2)` errors other than `EINTR`).
    pub fn run(&mut self) -> std::io::Result<()> {
        loop {
            self.drain_completions();
            let now = Instant::now();
            self.flush_and_reap(now);
            if self.shared.is_shutting_down() && self.all_quiesced() {
                return Ok(());
            }
            let (mut fds, targets) = self.build_poll_set(now);
            sys::poll_wait(&mut fds, self.poll_timeout(now))?;
            for (fd, target) in fds.iter().zip(&targets) {
                match target {
                    PollTarget::Listener => {
                        if fd.readable || fd.error {
                            self.accept_ready();
                        }
                    }
                    PollTarget::WakeChannel => {
                        if fd.readable {
                            self.wake_rx.drain();
                        }
                    }
                    PollTarget::Connection(idx) => {
                        if fd.readable || fd.error {
                            self.read_ready(*idx);
                        }
                    }
                }
            }
            self.flush_and_reap(Instant::now());
        }
    }

    /// The number of live connections.
    fn open_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Shutdown-drain condition: nothing in flight, owed, parked, or
    /// buffered on any connection.
    fn all_quiesced(&self) -> bool {
        self.slots.iter().flatten().all(|s| s.conn.is_quiesced() && s.pending.is_empty())
    }

    fn build_poll_set(&self, now: Instant) -> (Vec<PollFd>, Vec<PollTarget>) {
        let mut fds = Vec::with_capacity(self.slots.len() + 2);
        let mut targets = Vec::with_capacity(self.slots.len() + 2);
        fds.push(PollFd::new(self.listener_fd(), true, false));
        targets.push(PollTarget::Listener);
        fds.push(PollFd::new(self.wake_rx.fd(), true, false));
        targets.push(PollTarget::WakeChannel);
        let depth = self.shared.cfg.pipeline_depth;
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let want_read =
                slot.pending.is_empty() && !slot.poisoned && slot.conn.wants_read(depth);
            let want_write = slot.conn.wants_write(now);
            if want_read || want_write {
                fds.push(PollFd::new(slot.conn.fd(), want_read, want_write));
                targets.push(PollTarget::Connection(idx));
            }
        }
        (fds, targets)
    }

    #[cfg(unix)]
    fn listener_fd(&self) -> sys::RawFd {
        use std::os::fd::AsRawFd;
        self.listener.as_raw_fd()
    }

    #[cfg(not(unix))]
    fn listener_fd(&self) -> sys::RawFd {
        0
    }

    /// Sleep no longer than the nearest chaos write gate needs.
    fn poll_timeout(&self, now: Instant) -> Duration {
        let mut timeout = POLL_TICK;
        for slot in self.slots.iter().flatten() {
            if let Some(gate) = slot.conn.write_gate {
                timeout =
                    timeout.min(gate.saturating_duration_since(now).max(Duration::from_millis(1)));
            }
        }
        timeout
    }

    /// Apply every completion the workers have queued.
    fn drain_completions(&mut self) {
        // Re-arm the coalesced wakeup before draining: anything sent after
        // this point wakes the next poll even if we happen to drain it now.
        self.wake_pending.store(false, Ordering::Release);
        while let Ok(msg) = self.rx.try_recv() {
            let Some(slot) = self.slots.get_mut(msg.token.idx).and_then(Option::as_mut) else {
                continue; // connection reaped while the job was in flight
            };
            if slot.token != msg.token {
                continue; // slot re-used for a newer connection
            }
            slot.conn.inflight -= 1;
            gauge_dec(&self.shared.net.inflight, 1);
            if let Route::Tag(tag) = &msg.route {
                slot.conn.inflight_tags.remove(tag);
            }
            let line = msg.line.unwrap_or_else(|| {
                // The worker died (e.g. a panic) with the job in hand; the
                // watchdog is already respawning it. The client gets a
                // typed, retryable error — never a hang.
                self.shared.registry.add("server", "errors-worker-lost", 1);
                Response::err_line(ErrorKind::Internal, "worker dropped the request")
            });
            if self.deliver(msg.token.idx, msg.route, line) {
                self.pump(msg.token.idx);
            }
        }
    }

    /// Enqueue one response line on connection `idx`, drawing the chaos
    /// write-site faults. Returns `false` when the fault killed the
    /// connection.
    fn deliver(&mut self, idx: usize, route: Route, line: String) -> bool {
        if let Some(chaos) = &self.shared.chaos {
            if let Some(delay) = chaos.response_delay() {
                // Gate the flush instead of sleeping: the delay applies to
                // this connection only, never to the loop.
                if let Some(slot) = self.slots[idx].as_mut() {
                    slot.conn.write_gate = Some(Instant::now() + delay);
                }
            }
            if chaos.drop_write() {
                // Injected connection reset instead of the response.
                self.close(idx);
                return false;
            }
        }
        let Some(slot) = self.slots[idx].as_mut() else { return false };
        match route {
            Route::Tag(tag) => slot.conn.queue_write_tagged(&tag, &line),
            Route::Serial(serial) => slot.conn.complete_serial(serial, line),
        }
        true
    }

    /// Accept every pending connection.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.shared.chaos.as_ref().is_some_and(|c| c.drop_accept()) {
                drop(stream);
                continue;
            }
            if self.open_count() >= self.shared.cfg.max_conns {
                self.shared.registry.add("server", "rejected-conn-limit", 1);
                reject_over_limit(stream, self.shared.cfg.max_conns);
                continue;
            }
            let conn = match Conn::new(stream, PROTOCOL_VERSION) {
                Ok(c) => c,
                Err(_) => continue,
            };
            self.next_gen += 1;
            let idx = self.free.pop().unwrap_or_else(|| {
                self.slots.push(None);
                self.slots.len() - 1
            });
            let token = Token { idx, gen: self.next_gen };
            self.slots[idx] = Some(Slot { conn, token, pending: VecDeque::new(), poisoned: false });
            self.shared.net.connections_open.fetch_add(1, Ordering::Relaxed);
            self.shared.registry.add("server", "connections-accepted", 1);
        }
    }

    /// Pull bytes off a readable connection and process what frames fit
    /// the pipeline budget (the rest park in `pending`).
    fn read_ready(&mut self, idx: usize) {
        let Some(slot) = self.slots[idx].as_mut() else { return };
        let frames = match slot.conn.read_frames() {
            ReadEvent::Frames(frames) | ReadEvent::Eof(frames) => frames,
            ReadEvent::Overflow => {
                self.shared.registry.add("server", "errors-proto", 1);
                slot.conn.queue_write(&Response::err_line(
                    ErrorKind::Proto,
                    &format!("request exceeds {} bytes", conn::MAX_FRAME_BYTES),
                ));
                slot.poisoned = true;
                return;
            }
            ReadEvent::Broken => {
                self.close(idx);
                return;
            }
        };
        slot.pending.extend(frames);
        self.pump(idx);
    }

    /// Process parked frames while the connection has pipeline budget.
    fn pump(&mut self, idx: usize) {
        let depth = self.shared.cfg.pipeline_depth.max(1);
        loop {
            let Some(slot) = self.slots[idx].as_mut() else { return };
            if slot.conn.inflight >= depth {
                return;
            }
            let Some(frame) = slot.pending.pop_front() else { return };
            if !self.process_frame(idx, &frame) {
                return; // connection killed mid-burst
            }
        }
    }

    /// Handle one decoded request line. Returns `false` when the
    /// connection was killed (chaos or delivery fault).
    fn process_frame(&mut self, idx: usize, line: &str) -> bool {
        let decoded = Instant::now();
        if self.shared.chaos.as_ref().is_some_and(|c| c.drop_read()) {
            // Injected connection reset after the request was decoded.
            self.close(idx);
            return false;
        }
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                self.shared.registry.add("server", "errors-proto", 1);
                let err = Response::err_line(ErrorKind::Proto, &msg);
                // Best effort: echo the tag of a malformed tagged frame so
                // a pipelining client can fail just that request.
                let route = match extract_tag(line) {
                    Some(tag) => Route::Tag(tag),
                    None => Route::Serial(self.next_serial(idx)),
                };
                return self.deliver(idx, route, err);
            }
        };
        match request {
            Request::Compile(req) => self.dispatch(idx, req, decoded),
            control => {
                if let Request::Hello { proto } = control {
                    if (1..=PROTOCOL_VERSION).contains(&proto) {
                        if let Some(slot) = self.slots[idx].as_mut() {
                            slot.conn.proto = proto;
                        }
                    }
                }
                let serial = self.next_serial(idx);
                let line = crate::control_response(&control, &self.shared);
                self.deliver(idx, Route::Serial(serial), line)
            }
        }
    }

    fn next_serial(&mut self, idx: usize) -> u64 {
        let slot = self.slots[idx].as_mut().expect("serial for a live connection");
        let serial = slot.conn.next_serial;
        slot.conn.next_serial += 1;
        serial
    }

    /// Route one `COMPILE`, decoded at `decoded`, to the worker queue (or
    /// answer its failure).
    fn dispatch(&mut self, idx: usize, req: protocol::CompileRequest, decoded: Instant) -> bool {
        let route = match req.tag.clone() {
            Some(tag) => {
                let slot = self.slots[idx].as_mut().expect("dispatch on a live connection");
                if slot.conn.proto < 4 {
                    self.shared.registry.add("server", "errors-proto", 1);
                    let err = Response::err_line(
                        ErrorKind::Proto,
                        &format!(
                            "tag= requires protocol 4 (connection negotiated {})",
                            slot.conn.proto
                        ),
                    );
                    return self.deliver(idx, Route::Tag(tag), err);
                }
                if slot.conn.inflight_tags.contains(&tag) {
                    self.shared.registry.add("server", "errors-proto", 1);
                    let err = Response::err_line(
                        ErrorKind::Proto,
                        &format!("tag `{tag}` is already in flight on this connection"),
                    );
                    return self.deliver(idx, Route::Tag(tag), err);
                }
                Route::Tag(tag)
            }
            None => Route::Serial(self.next_serial(idx)),
        };
        // Warm hit: answered inline on the loop thread. This is the fast
        // path that makes deep pipelining pay — the proto/duplicate-tag
        // checks above already ran, and `deliver` keeps tag/serial
        // ordering semantics identical to the worker path.
        if let Some(line) = crate::cached_fast_path(&self.shared, &req) {
            return self.deliver(idx, route, line);
        }
        let token = self.slots[idx].as_ref().expect("dispatch on a live connection").token;
        let done = Completion {
            token,
            route: Some(route.clone()),
            tx: self.tx.clone(),
            waker: self.waker.clone(),
            wake_pending: Arc::clone(&self.wake_pending),
        };
        match crate::dispatch_compile(&self.shared, req, done, decoded) {
            Ok(()) => {
                let slot = self.slots[idx].as_mut().expect("slot survives dispatch");
                slot.conn.inflight += 1;
                if let Route::Tag(tag) = &route {
                    slot.conn.inflight_tags.insert(tag.clone());
                }
                let inflight = slot.conn.inflight as u64;
                self.shared.net.inflight.fetch_add(1, Ordering::Relaxed);
                self.shared.net.pipeline_hwm.fetch_max(inflight, Ordering::Relaxed);
                true
            }
            Err(err) => self.deliver(idx, route, err),
        }
    }

    /// Flush writable connections and reap the finished, broken, and
    /// over-limit ones.
    fn flush_and_reap(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            let Some(slot) = self.slots[idx].as_mut() else { continue };
            if !slot.conn.flush(now) {
                self.close(idx);
                continue;
            }
            let slot = self.slots[idx].as_mut().expect("slot survives flush");
            if slot.conn.pending_write_len() > WRITE_HARD_LIMIT {
                // The client stopped reading entirely; cut it loose rather
                // than pin server memory.
                self.close(idx);
                continue;
            }
            let done_for_good = slot.conn.pending_write_len() == 0
                && (slot.poisoned
                    || (slot.conn.peer_closed
                        && slot.conn.is_quiesced()
                        && slot.pending.is_empty()));
            if done_for_good {
                self.close(idx);
            }
        }
    }

    /// Unregister a connection and release its gauges. In-flight jobs
    /// keep running; their completions arrive with a stale token and are
    /// discarded.
    fn close(&mut self, idx: usize) {
        if let Some(slot) = self.slots[idx].take() {
            gauge_dec(&self.shared.net.inflight, slot.conn.inflight as u64);
            gauge_dec(&self.shared.net.connections_open, 1);
            self.free.push(idx);
        }
    }
}

/// Saturating decrement for gauges (never wraps below zero).
fn gauge_dec(gauge: &AtomicU64, by: u64) {
    if by == 0 {
        return;
    }
    let mut cur = gauge.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(by);
        match gauge.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// One-line courtesy rejection for a connection over `--max-conns`: best
/// effort — the socket is closed either way.
fn reject_over_limit(stream: TcpStream, max_conns: usize) {
    let line = Response::err_line(
        ErrorKind::Overload,
        &format!("connection limit reached (max-conns={max_conns}), retry later"),
    );
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut stream = stream;
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Test helper: a completion wired to nowhere — sends and worker-lost
/// reports alike are discarded (receiver ends are leaked for the test's
/// lifetime so sends keep succeeding).
#[cfg(test)]
pub fn detached_completion() -> Completion {
    let (tx, rx) = mpsc::channel();
    std::mem::forget(rx);
    let (waker, reader) = Waker::pair().expect("waker pair");
    std::mem::forget(reader);
    Completion {
        token: Token { idx: 0, gen: 0 },
        route: Some(Route::Serial(0)),
        tx,
        waker,
        wake_pending: Arc::new(AtomicBool::new(false)),
    }
}

/// Pull a plausible `tag=` value out of a line that failed to parse, so
/// the error can be routed to the request the client thinks it sent.
fn extract_tag(line: &str) -> Option<String> {
    for word in line.split_whitespace() {
        if let Some(value) = word.strip_prefix("tag=") {
            if protocol::valid_tag(value) {
                return Some(value.to_string());
            }
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_extracted_from_malformed_lines_best_effort() {
        assert_eq!(extract_tag("COMPILE tag=t7 bogus"), Some("t7".to_string()));
        assert_eq!(extract_tag("COMPILE pipeline=maybe tag=a.b:c-d src=x"), Some("a.b:c-d".into()));
        assert_eq!(extract_tag("COMPILE src=x"), None);
        assert_eq!(extract_tag("COMPILE tag= src=x"), None, "empty tag is not a tag");
        assert_eq!(extract_tag("COMPILE tag=bad*chars src=x"), None);
    }

    #[test]
    fn gauge_decrement_saturates() {
        let g = AtomicU64::new(3);
        gauge_dec(&g, 2);
        assert_eq!(g.load(Ordering::Relaxed), 1);
        gauge_dec(&g, 5);
        assert_eq!(g.load(Ordering::Relaxed), 0);
        gauge_dec(&g, 0);
        assert_eq!(g.load(Ordering::Relaxed), 0);
    }
}
