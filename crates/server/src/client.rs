//! A blocking `lslpd` client: one request line out, one response line in.
//!
//! Used by the connection [`Pool`](crate::Pool) and the integration
//! tests.
//!
//! Two layers:
//!
//! * the plain calls ([`Client::compile`], [`Client::stats`], ...) do one
//!   roundtrip and surface every failure to the caller;
//! * [`Client::compile_with_retry`] / [`Client::retry_line`] add the
//!   resilience the chaos layer assumes clients have — a per-operation
//!   wall-clock deadline, jittered exponential backoff on `overload`
//!   rejections, and transparent reconnect-on-broken-pipe — governed by a
//!   [`RetryPolicy`] and reported through a [`RetryOutcome`] so load
//!   generators can surface attempt/reconnect/gave-up counts.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::chaos::splitmix64;
use crate::protocol::{CompileRequest, ErrorKind, Response, PROTOCOL_VERSION};

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The daemon's address, kept for reconnect-on-broken-pipe.
    peer: SocketAddr,
    /// The configured read timeout, re-applied after a reconnect.
    timeout: Option<Duration>,
}

/// Client-side failure: transport error or an unparseable response.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something that is not a protocol response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// How [`Client::retry_line`] behaves under failure.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Additional attempts after the first (so `max_retries = 0` means
    /// exactly one attempt).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Wall-clock budget for the whole operation, including backoff
    /// sleeps and the time spent waiting for responses (`None` = no
    /// deadline). When set, each attempt's read timeout is the part of
    /// the budget still left, and the client's own timeout is restored
    /// when the operation ends.
    pub deadline: Option<Duration>,
    /// Jitter seed: backoff delays are deterministic per seed, so load
    /// tests with a fixed seed are reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            deadline: Some(Duration::from_secs(10)),
            seed: 0x5ca1ab1e,
        }
    }
}

/// What a retried operation amounted to.
#[derive(Debug)]
pub struct RetryOutcome {
    /// The final response — `OK` or a non-retryable `ERR` — or the last
    /// retryable `ERR` when the budget ran out; `None` when every attempt
    /// died on the transport.
    pub response: Option<Response>,
    /// Total attempts made (≥ 1).
    pub attempts: u32,
    /// Successful reconnects after transport failures.
    pub reconnects: u32,
    /// The retry budget or deadline ran out while the operation was still
    /// failing retryably.
    pub gave_up: bool,
    /// Wall clock from first attempt to final outcome (backoffs
    /// included), for latency accounting in load generators.
    pub elapsed: Duration,
}

impl RetryOutcome {
    /// Did the operation end in an `OK` response?
    pub fn is_ok(&self) -> bool {
        self.response.as_ref().is_some_and(|r| r.ok)
    }
}

impl RetryPolicy {
    /// The sleep before the next try after failed attempt number
    /// `attempt` (1-based): exponential from `base_delay`, capped at
    /// `max_delay`, with deterministic jitter in [0.5, 1.0]× drawn from
    /// `seed + salt`. Callers pick the salt so concurrent requests do not
    /// back off in lockstep.
    pub(crate) fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let exp = self.base_delay.saturating_mul(1u32 << shift).min(self.max_delay);
        let frac = (splitmix64(self.seed.wrapping_add(salt)) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * frac)
    }
}

/// Is this response worth retrying? `overload` is the queue shedding load
/// (the server explicitly asks for backoff), and the worker-lost internal
/// error is transient by construction — the watchdog is respawning the
/// worker that died holding the request.
pub(crate) fn retryable(resp: &Response) -> bool {
    match resp.error {
        Some(ErrorKind::Overload) => true,
        Some(ErrorKind::Internal) => resp.payload.contains("worker dropped the request"),
        _ => false,
    }
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, peer, timeout: None })
    }

    /// Bound how long [`Client::roundtrip`] may block waiting for a
    /// response (`None` = wait forever, the default). Survives
    /// [`Client::reconnect`].
    ///
    /// # Errors
    ///
    /// Propagates `set_read_timeout` failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.timeout = timeout;
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Drop the (possibly broken) connection and dial the daemon again,
    /// re-applying the configured read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (e.g. the daemon is mid-restart).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.timeout)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        Ok(())
    }

    /// Send one raw request line (no trailing newline) and read the
    /// response line.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure (including a server that
    /// closed mid-request), [`ClientError::Protocol`] on a malformed
    /// response.
    pub fn roundtrip(&mut self, line: &str) -> Result<Response, ClientError> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Response::parse(&response).map_err(ClientError::Protocol)
    }

    /// Pipelining: send one request line without waiting for the
    /// response. Pair with [`Client::recv_line_step`]; on a v4 server,
    /// tagged requests may be answered out of order.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Pipelining: send a pre-rendered batch of `\n`-terminated request
    /// lines in one write, so a window refill costs one syscall instead
    /// of one per request.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_batch(&mut self, batch: &str) -> std::io::Result<()> {
        debug_assert!(batch.is_empty() || batch.ends_with('\n'), "batches are newline-terminated");
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()
    }

    /// Pipelining: is a complete response line already sitting in the read
    /// buffer? When true, [`Client::recv_line_step`] returns it without
    /// touching the socket — the drain loop of a pipelined client uses
    /// this to consume a whole burst of responses on one read syscall.
    pub fn has_buffered_response(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// Pipelining: try to read one response line, accumulating partial
    /// bytes in `buf` across read-timeout ticks so a slow response is
    /// never torn. Returns `Ok(None)` on a read timeout (call again),
    /// `Ok(Some(..))` when a full line arrived (`buf` is cleared).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure or EOF,
    /// [`ClientError::Protocol`] on a malformed response line.
    pub fn recv_line_step(&mut self, buf: &mut String) -> Result<Option<Response>, ClientError> {
        match self.reader.read_line(buf) {
            Ok(0) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Ok(_) => {
                if buf.ends_with('\n') {
                    let parsed = Response::parse(buf).map_err(ClientError::Protocol)?;
                    buf.clear();
                    Ok(Some(parsed))
                } else {
                    // `read_line` only stops short of a newline at EOF.
                    Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    )))
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// [`Client::roundtrip`] with resilience: retry `overload` rejections
    /// and transient worker-lost errors with jittered exponential backoff,
    /// reconnect and retry on transport failure, and give up at the retry
    /// budget or wall-clock deadline. Never returns an error: transport
    /// death after all retries is `response: None, gave_up: true`.
    pub fn retry_line(&mut self, line: &str, policy: &RetryPolicy) -> RetryOutcome {
        let started = Instant::now();
        let prior_timeout = self.timeout;
        let mut attempts = 0u32;
        let mut reconnects = 0u32;
        let mut last: Option<Response> = None;
        let (response, gave_up) = loop {
            if let Some(deadline) = policy.deadline {
                // Each attempt may block only for what is left of the
                // budget, so the whole operation ends within `deadline`.
                match deadline.checked_sub(started.elapsed()).filter(|left| !left.is_zero()) {
                    Some(left) => {
                        let _ = self.set_timeout(Some(left));
                    }
                    None if attempts > 0 => break (last, true),
                    None => {}
                }
            }
            attempts += 1;
            last = match self.roundtrip(line) {
                Ok(resp) if !retryable(&resp) => break (Some(resp), false),
                Ok(resp) => Some(resp),
                // A garbled response is a bug, not load: don't retry.
                Err(ClientError::Protocol(_)) => break (None, true),
                Err(ClientError::Io(_)) => {
                    // The old stream is unusable either way; if the dial
                    // fails (daemon mid-restart) the next attempt's
                    // roundtrip fails fast and we back off again.
                    if self.reconnect().is_ok() {
                        reconnects += 1;
                    }
                    None
                }
            };
            if attempts > policy.max_retries {
                break (last, true);
            }
            let delay = policy.backoff(attempts, attempts as u64);
            if policy.deadline.is_some_and(|deadline| started.elapsed() + delay >= deadline) {
                break (last, true);
            }
            std::thread::sleep(delay);
        };
        if policy.deadline.is_some() {
            let _ = self.set_timeout(prior_timeout);
        }
        RetryOutcome { response, attempts, reconnects, gave_up, elapsed: started.elapsed() }
    }

    /// Submit a compile request.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`]; an `ERR` response is returned as a
    /// successful [`Response`] with `ok == false`.
    pub fn compile(&mut self, req: &CompileRequest) -> Result<Response, ClientError> {
        self.roundtrip(&req.to_line())
    }

    /// Submit a compile request under a [`RetryPolicy`]; see
    /// [`Client::retry_line`].
    pub fn compile_with_retry(
        &mut self,
        req: &CompileRequest,
        policy: &RetryPolicy,
    ) -> RetryOutcome {
        self.retry_line(&req.to_line(), policy)
    }

    /// Version handshake: announce this build's [`PROTOCOL_VERSION`]. An
    /// `ERR kind=proto` response means the server does not speak it.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn hello(&mut self) -> Result<Response, ClientError> {
        self.roundtrip(&format!("HELLO proto={PROTOCOL_VERSION}"))
    }

    /// Fetch the metrics dump.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.roundtrip("STATS")
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.roundtrip("PING")
    }

    /// Readiness probe: `status=ready|degraded|draining` plus worker
    /// liveness fields.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn health(&mut self) -> Result<Response, ClientError> {
        self.roundtrip("HEALTH")
    }

    /// Ask the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.roundtrip("SHUTDOWN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn retry_deadline_bounds_the_whole_operation() {
        // A scripted daemon: the first connection reads the request, stalls
        // 200 ms and hangs up; the second reads the retry and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let read_request = |stream: &TcpStream| {
                let mut line = String::new();
                BufReader::new(stream).read_line(&mut line).unwrap();
            };
            let (first, _) = listener.accept().unwrap();
            read_request(&first);
            std::thread::sleep(Duration::from_millis(200));
            drop(first);
            let (second, _) = listener.accept().unwrap();
            read_request(&second);
            // Hold the connection open until the client hangs up.
            let _ = BufReader::new(&second).read_line(&mut String::new());
        });

        let mut client = Client::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(7))).unwrap();
        let policy =
            RetryPolicy { deadline: Some(Duration::from_millis(300)), ..Default::default() };
        let outcome = client.retry_line("PING", &policy);
        assert!(outcome.gave_up && outcome.response.is_none(), "{outcome:?}");
        assert_eq!(outcome.attempts, 2, "{outcome:?}");
        assert!(
            outcome.elapsed < Duration::from_millis(400),
            "a 300 ms deadline ran to {:?}",
            outcome.elapsed
        );
        let restored = client.reader.get_ref().read_timeout().unwrap();
        assert_eq!(client.timeout, Some(Duration::from_secs(7)));
        assert_eq!(restored, Some(Duration::from_secs(7)), "the caller's timeout is restored");
        drop(client);
        script.join().unwrap();
    }
}
