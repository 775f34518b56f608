//! The `lslpd` wire protocol: line-delimited requests and responses.
//!
//! One request per line, one response line per request, both framed by a
//! single `\n`. Multi-line payloads (SLC source in, IR out) travel on one
//! line via a two-character escape ([`escape`]/[`unescape`]): `\n` → `\\n`,
//! `\r` → `\\r`, `\\` → `\\\\`. This keeps clients trivial — a client is a
//! `writeln!` plus a `read_line` — and makes requests greppable in traffic
//! captures.
//!
//! Grammar (see `docs/SERVER.md` for the full description):
//!
//! ```text
//! request  := "COMPILE" (SP option)* SP "src=" escaped-source
//!           | "HELLO" SP "proto=" N
//!           | "STATS" | "HEALTH" | "PING" | "SHUTDOWN"
//! option   := "config=" NAME      (preset, default LSLP)
//!           | "target=" SPEC      (target machine, default skylake-avx2)
//!           | "pipeline=" 0|1     (full scalar+vector pipeline, default 1)
//!           | "emit=" ir|report   (default ir)
//!           | "guard=" off|rollback|strict
//!           | "packing=" greedy|global  (v5: statement-packing strategy)
//!           | "timeout-ms=" N    (compile budget, default server-wide)
//!           | "tag=" TOKEN       (v4: pipelining tag, echoed in the response)
//! response := "OK" (SP field)* SP "out=" escaped-payload
//!           | "ERR" [SP "tag=" TOKEN] SP "kind=" KIND SP "msg=" escaped-message
//! ```
//!
//! `src=`/`out=`/`msg=` always come last so the escaped payload may contain
//! spaces and `=` freely.
//!
//! The protocol is versioned: clients may open with `HELLO proto=N` and
//! the server answers `OK proto=<version> out=lslpd` when it speaks
//! version `N`, or `ERR kind=proto` when it does not. `HELLO` is optional
//! for backward compatibility — version-1 clients that skip the handshake
//! keep working because every version-2 addition is a new optional field.
//! Unknown request options are rejected with `ERR kind=proto`, never
//! silently ignored, so a client using a newer field fails loudly on an
//! older server.
//!
//! **Pipelining (v4).** A `COMPILE` may carry a client-chosen `tag=`
//! ([`valid_tag`]): the response echoes the tag and may arrive **out of
//! order** relative to other tagged responses on the same connection, so
//! one connection can keep many compiles in flight. Untagged requests
//! keep the strict one-in-one-out FIFO ordering of v1–v3 — the server
//! holds their responses in a per-connection reorder buffer — which is
//! what keeps old clients working unmodified against a v4 server. A tag
//! that is already in flight on the same connection is rejected with
//! `ERR tag=<tag> kind=proto` without disturbing the first request.

use std::fmt::Write as _;

/// The wire-protocol version this build speaks.
///
/// History: 1 = the initial `COMPILE`/`STATS`/`PING`/`SHUTDOWN` protocol;
/// 2 = adds the `HELLO` handshake and the `target=` compile option;
/// 3 = adds the `HEALTH` readiness verb;
/// 4 = adds the `tag=` compile option and out-of-order tagged responses
/// (request pipelining / multiplexing);
/// 5 = adds the `packing=` compile option (statement-packing strategy).
pub const PROTOCOL_VERSION: u32 = 5;

/// Maximum length of a pipelining tag.
pub const MAX_TAG_LEN: usize = 64;

/// Is `s` a legal pipelining tag? Tags are wire *atoms* — they are echoed
/// verbatim as a response field — so they are restricted to 1–64 chars of
/// `[A-Za-z0-9._:-]`: no spaces, no `=`, no escapes.
pub fn valid_tag(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_TAG_LEN
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

/// Escape a payload onto a single protocol line.
///
/// Scans bytes and copies unescaped runs wholesale instead of pushing
/// char-by-char — this runs once per response on the serve hot path, and
/// payloads are mostly literal text. The specials are all ASCII, so byte
/// positions are always UTF-8 boundaries.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    escape_into(&mut out, s);
    out
}

/// [`escape`] appended onto an existing buffer — lets a response renderer
/// build its whole line in one allocation.
pub fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let rep = match b {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(rep);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Invert [`escape`]. Unknown escapes and a trailing lone `\` error.
pub fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'\\' {
            i += 1;
            continue;
        }
        out.push_str(&s[start..i]);
        match bytes.get(i + 1) {
            Some(b'\\') => out.push('\\'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(_) => {
                let other = s[i + 1..].chars().next().expect("byte after backslash");
                return Err(format!("bad escape `\\{other}`"));
            }
            None => return Err("truncated escape at end of line".into()),
        }
        i += 2;
        start = i;
    }
    out.push_str(&s[start..]);
    Ok(out)
}

/// Why a request was refused (the `kind=` field of an `ERR` response).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The request line itself is malformed (unknown verb, bad option,
    /// broken escape).
    Proto,
    /// The submitted source does not lex/parse/verify — a *user* error.
    Parse,
    /// Unknown configuration preset or guard mode.
    Config,
    /// The bounded work queue is full; retry with backoff.
    Overload,
    /// The server is draining for shutdown and accepts no new work.
    Shutdown,
    /// The compiler itself failed (strict-guard abort, internal bug).
    Internal,
}

impl ErrorKind {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Proto => "proto",
            ErrorKind::Parse => "parse",
            ErrorKind::Config => "config",
            ErrorKind::Overload => "overload",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse a wire name back into a kind.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "proto" => ErrorKind::Proto,
            "parse" => ErrorKind::Parse,
            "config" => ErrorKind::Config,
            "overload" => ErrorKind::Overload,
            "shutdown" => ErrorKind::Shutdown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// What the response payload contains.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Emit {
    /// The optimized module IR.
    #[default]
    Ir,
    /// A per-function vectorization report.
    Report,
}

/// A parsed `COMPILE` request.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Configuration preset name (`O3` | `SLP-NR` | `SLP` | `LSLP` | ...).
    pub config: String,
    /// Target machine spec (`sse4.2`, `avx512+hw-gather`, ...); `None` =
    /// the server's default target. Participates in the result-cache key.
    pub target: Option<String>,
    /// Run the full scalar+vector pipeline (default) or the vectorizer
    /// alone.
    pub pipeline: bool,
    /// Payload selection.
    pub emit: Emit,
    /// Guard-mode override (`off` | `rollback` | `strict`; `None` keeps
    /// the preset default, rollback). Other spellings are answered with
    /// `ERR kind=config`.
    pub guard: Option<String>,
    /// Statement-packing strategy (v5): `greedy` | `global`; `None` keeps
    /// the preset default (greedy). Changes the artifact, so it
    /// participates in the result-cache key. Validated at parse time —
    /// an unknown spelling is `ERR kind=proto`.
    pub packing: Option<String>,
    /// Per-request compile budget in milliseconds (`None` = the server's
    /// default). Fed into the guard's time-budget fuel, so a pathological
    /// input degrades to (partially) scalar output instead of stalling a
    /// worker.
    pub timeout_ms: Option<u64>,
    /// Pipelining tag (v4): echoed in the response, which may then
    /// complete out of order relative to other tagged requests on the
    /// same connection. `None` keeps the serial v1–v3 FIFO ordering.
    /// Does **not** participate in the result-cache key.
    pub tag: Option<String>,
    /// The SLC source (unescaped).
    pub src: String,
}

impl Default for CompileRequest {
    fn default() -> CompileRequest {
        CompileRequest {
            config: "LSLP".into(),
            target: None,
            pipeline: true,
            emit: Emit::Ir,
            guard: None,
            packing: None,
            timeout_ms: None,
            tag: None,
            src: String::new(),
        }
    }
}

impl CompileRequest {
    /// A default-configured request for `src`.
    pub fn new(src: &str) -> CompileRequest {
        CompileRequest { src: src.to_string(), ..CompileRequest::default() }
    }

    /// Render the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::with_capacity(self.src.len() + self.src.len() / 8 + 64);
        self.line_into(self.tag.as_deref(), &mut line);
        line
    }

    /// Append this request's wire line onto `buf`, with `tag` overriding
    /// `self.tag`. A pipelining client renders a whole window of requests
    /// into one write buffer this way, with no interim line strings.
    pub fn line_into(&self, tag: Option<&str>, buf: &mut String) {
        buf.push_str("COMPILE");
        let _ = write!(buf, " config={}", self.config);
        if let Some(t) = &self.target {
            let _ = write!(buf, " target={t}");
        }
        let _ = write!(buf, " pipeline={}", if self.pipeline { 1 } else { 0 });
        if self.emit == Emit::Report {
            buf.push_str(" emit=report");
        }
        if let Some(g) = &self.guard {
            let _ = write!(buf, " guard={g}");
        }
        if let Some(p) = &self.packing {
            let _ = write!(buf, " packing={p}");
        }
        if let Some(ms) = self.timeout_ms {
            let _ = write!(buf, " timeout-ms={ms}");
        }
        if let Some(tag) = tag {
            debug_assert!(valid_tag(tag), "tags must be wire atoms");
            let _ = write!(buf, " tag={tag}");
        }
        buf.push_str(" src=");
        escape_into(buf, &self.src);
    }
}

/// Any parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Compile a source payload.
    Compile(CompileRequest),
    /// Version handshake: the client announces the protocol version it
    /// intends to speak.
    Hello {
        /// The client's protocol version.
        proto: u32,
    },
    /// Dump the metrics registry.
    Stats,
    /// Readiness/degradation probe: `OK status=ready|degraded|draining`
    /// with worker-liveness fields. Unlike `PING` (pure liveness), the
    /// answer reflects whether the daemon is healthy enough to serve.
    Health,
    /// Liveness check.
    Ping,
    /// Begin graceful shutdown: drain queued work, then exit.
    Shutdown,
}

/// Parse one request line (without its trailing newline).
///
/// # Errors
///
/// Returns a [`ErrorKind::Proto`]-ready message for malformed lines.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (line, ""),
    };
    match verb {
        "STATS" => Ok(Request::Stats),
        "HEALTH" => Ok(Request::Health),
        "PING" => Ok(Request::Ping),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "COMPILE" => parse_compile(rest).map(Request::Compile),
        "HELLO" => parse_hello(rest),
        "" => Err("empty request".into()),
        other => Err(format!("unknown verb `{other}`")),
    }
}

fn parse_hello(rest: &str) -> Result<Request, String> {
    let mut proto = None;
    for token in rest.split(' ').filter(|t| !t.is_empty()) {
        let (key, value) =
            token.split_once('=').ok_or_else(|| format!("expected key=value, got `{token}`"))?;
        match key {
            "proto" => {
                proto = Some(value.parse().map_err(|e| format!("bad proto value: {e}"))?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Request::Hello { proto: proto.ok_or("HELLO requires proto=")? })
}

fn parse_compile(rest: &str) -> Result<CompileRequest, String> {
    let mut req = CompileRequest::default();
    // Walk tokens by byte offset so `src=` can swallow the untouched tail
    // of the line (the escaped payload may contain spaces) without
    // re-joining previously split pieces.
    let mut cursor = 0usize;
    loop {
        if cursor >= rest.len() {
            return Err("missing src= payload".into());
        }
        let token_end = rest[cursor..].find(' ').map_or(rest.len(), |p| cursor + p);
        let token = &rest[cursor..token_end];
        let (key, value) =
            token.split_once('=').ok_or_else(|| format!("expected key=value, got `{token}`"))?;
        match key {
            "src" => {
                req.src = unescape(&rest[cursor + key.len() + 1..])?;
                return Ok(req);
            }
            "config" => req.config = value.to_string(),
            "target" => req.target = Some(value.to_string()),
            "pipeline" => {
                req.pipeline = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad pipeline value `{other}`")),
                }
            }
            "emit" => {
                req.emit = match value {
                    "ir" => Emit::Ir,
                    "report" => Emit::Report,
                    other => return Err(format!("unknown emit mode `{other}`")),
                }
            }
            "guard" => req.guard = Some(value.to_string()),
            "packing" => match value {
                "greedy" | "global" => req.packing = Some(value.to_string()),
                other => {
                    return Err(format!("unknown packing strategy `{other}` (try greedy, global)"))
                }
            },
            "timeout-ms" => {
                req.timeout_ms =
                    Some(value.parse().map_err(|e| format!("bad timeout-ms value: {e}"))?)
            }
            "tag" => {
                if !valid_tag(value) {
                    return Err(format!(
                        "bad tag `{value}` (1..={MAX_TAG_LEN} chars of [A-Za-z0-9._:-])"
                    ));
                }
                req.tag = Some(value.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        cursor = token_end + 1;
    }
}

/// A parsed response line.
#[derive(Clone, Debug)]
pub struct Response {
    /// `OK` vs `ERR`.
    pub ok: bool,
    /// The `kind=` of an `ERR` response.
    pub error: Option<ErrorKind>,
    /// All `key=value` fields before the payload, verbatim in wire order.
    /// Kept as one undissected slice of the line — fields are atoms (no
    /// escapes, no spaces), so [`Response::field`] scans on demand instead
    /// of paying a map and two string allocations per field on every
    /// response a pipelining client drains.
    raw_fields: String,
    /// The unescaped `out=` / `msg=` payload.
    pub payload: String,
}

impl Response {
    /// Render an `OK` response line. `fields` must not contain `out`.
    pub fn ok_line(fields: &[(&str, String)], payload: &str) -> String {
        let mut line = String::from("OK");
        for (k, v) in fields {
            debug_assert!(!v.contains([' ', '\n']), "field values must be atoms");
            let _ = write!(line, " {k}={v}");
        }
        let _ = write!(line, " out={}", escape(payload));
        line
    }

    /// Render an `ERR` response line.
    pub fn err_line(kind: ErrorKind, msg: &str) -> String {
        format!("ERR kind={} msg={}", kind.name(), escape(msg))
    }

    /// Render an `ERR` response line echoing a pipelining tag.
    pub fn err_line_tagged(tag: &str, kind: ErrorKind, msg: &str) -> String {
        debug_assert!(valid_tag(tag), "tags must be wire atoms");
        format!("ERR tag={tag} kind={} msg={}", kind.name(), escape(msg))
    }

    /// Inject `tag=<tag>` into an already-rendered response line, right
    /// after the `OK`/`ERR` verb. Used by the server to stamp a worker's
    /// response with the connection-level pipelining tag the worker never
    /// sees.
    pub fn tag_line(tag: &str, line: &str) -> String {
        debug_assert!(valid_tag(tag), "tags must be wire atoms");
        match line.split_once(' ') {
            Some((verb, rest)) => format!("{verb} tag={tag} {rest}"),
            None => format!("{line} tag={tag}"),
        }
    }

    /// The echoed pipelining tag, when present.
    pub fn tag(&self) -> Option<&str> {
        self.field("tag")
    }

    /// A named field, when present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.raw_fields.split(' ').find_map(|t| {
            let (k, v) = t.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Parse one response line.
    ///
    /// # Errors
    ///
    /// Returns a message for lines that are not well-formed responses.
    pub fn parse(line: &str) -> Result<Response, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) =
            line.split_once(' ').ok_or_else(|| format!("malformed response `{line}`"))?;
        let ok = match verb {
            "OK" => true,
            "ERR" => false,
            other => return Err(format!("unknown response verb `{other}`")),
        };
        // Walk tokens by byte offset: everything before the payload marker
        // becomes the raw field region verbatim (one allocation), and the
        // escaped payload is the untouched tail of the line.
        let mut payload = None;
        let mut fields_end = 0usize;
        let mut cursor = 0usize;
        while cursor < rest.len() {
            let token_end = rest[cursor..].find(' ').map_or(rest.len(), |p| cursor + p);
            let token = &rest[cursor..token_end];
            let (key, _) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{token}`"))?;
            if key == "out" || key == "msg" {
                payload = Some(unescape(&rest[cursor + key.len() + 1..])?);
                break;
            }
            fields_end = token_end;
            cursor = token_end + 1;
        }
        let payload = payload.ok_or("response has no out=/msg= payload")?;
        let mut resp =
            Response { ok, error: None, raw_fields: rest[..fields_end].to_string(), payload };
        if !ok {
            resp.error = Some(
                resp.field("kind")
                    .and_then(ErrorKind::parse)
                    .ok_or("ERR response without a known kind=")?,
            );
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips() {
        for s in ["", "plain", "a\nb\r\nc", "back\\slash\\n", "kernel k() {\n  A[i] = 1;\n}"] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
        }
        assert!(escape("a\nb").lines().count() == 1, "escaped payloads are single-line");
        assert!(unescape("bad\\q").is_err());
        assert!(unescape("trailing\\").is_err());
    }

    #[test]
    fn hello_handshake_parses() {
        match parse_request("HELLO proto=2").unwrap() {
            Request::Hello { proto } => assert_eq!(proto, 2),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(parse_request("HELLO").is_err(), "proto= is mandatory");
        assert!(parse_request("HELLO proto=soon").is_err());
        assert!(parse_request("HELLO proto=2 color=blue").is_err(), "unknown fields rejected");
    }

    #[test]
    fn target_option_roundtrips_and_defaults_off_the_wire() {
        let req =
            CompileRequest { target: Some("avx512+hw-gather".into()), ..CompileRequest::new("x") };
        match parse_request(&req.to_line()).unwrap() {
            Request::Compile(r) => assert_eq!(r.target.as_deref(), Some("avx512+hw-gather")),
            other => panic!("wrong request: {other:?}"),
        }
        // A version-1 line without target= still parses (target = None).
        match parse_request("COMPILE config=LSLP pipeline=1 src=x").unwrap() {
            Request::Compile(r) => assert_eq!(r.target, None),
            other => panic!("wrong request: {other:?}"),
        }
        let default_line = CompileRequest::new("x").to_line();
        assert!(!default_line.contains("target="), "default target stays off the wire");
    }

    #[test]
    fn compile_request_roundtrips() {
        let req = CompileRequest {
            config: "SLP".into(),
            target: Some("sse4.2".into()),
            pipeline: false,
            emit: Emit::Report,
            guard: Some("strict".into()),
            packing: Some("global".into()),
            timeout_ms: Some(25),
            tag: None,
            src: "kernel k(f64* A, i64 i) {\n  A[i] = A[i] + 1.0;\n}".into(),
        };
        let line = req.to_line();
        assert!(!line.contains('\n'));
        match parse_request(&line).unwrap() {
            Request::Compile(r) => {
                assert_eq!(r.config, "SLP");
                assert_eq!(r.target.as_deref(), Some("sse4.2"));
                assert!(!r.pipeline);
                assert_eq!(r.emit, Emit::Report);
                assert_eq!(r.guard.as_deref(), Some("strict"));
                assert_eq!(r.packing.as_deref(), Some("global"));
                assert_eq!(r.timeout_ms, Some(25));
                assert_eq!(r.src, req.src);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn tags_roundtrip_and_validate() {
        let req = CompileRequest { tag: Some("t-42.x:y_z".into()), ..CompileRequest::new("x") };
        match parse_request(&req.to_line()).unwrap() {
            Request::Compile(r) => assert_eq!(r.tag.as_deref(), Some("t-42.x:y_z")),
            other => panic!("wrong request: {other:?}"),
        }
        // Untagged lines stay untagged (v1-v3 lines are valid v4 lines).
        let untagged = CompileRequest::new("x").to_line();
        assert!(!untagged.contains("tag="), "default tag stays off the wire");

        assert!(valid_tag("a"));
        assert!(valid_tag(&"x".repeat(MAX_TAG_LEN)));
        assert!(!valid_tag(""));
        assert!(!valid_tag(&"x".repeat(MAX_TAG_LEN + 1)));
        assert!(!valid_tag("has space"));
        assert!(!valid_tag("has=eq"));
        assert!(!valid_tag("esc\\ape"));
        assert!(parse_request("COMPILE tag= src=x").is_err(), "empty tag rejected");
        assert!(parse_request("COMPILE tag=a b src=x").is_err(), "tag is one token");
        assert!(parse_request(&format!("COMPILE tag={} src=x", "y".repeat(65))).is_err());
    }

    #[test]
    fn packing_option_roundtrips_and_validates() {
        // Spellings are checked at parse time — a typo is a proto error
        // before the request ever reaches a worker.
        match parse_request("COMPILE packing=global src=x").unwrap() {
            Request::Compile(r) => assert_eq!(r.packing.as_deref(), Some("global")),
            other => panic!("wrong request: {other:?}"),
        }
        let err = parse_request("COMPILE packing=exhaustive src=x").unwrap_err();
        assert!(err.contains("try greedy, global"), "{err}");
        // Old clients never send packing=, and the default stays off the
        // wire, so v1-v4 lines are valid v5 lines.
        let default_line = CompileRequest::new("x").to_line();
        assert!(!default_line.contains("packing="), "default packing stays off the wire");
    }

    #[test]
    fn tagged_responses_roundtrip() {
        let ok = Response::tag_line("t7", &Response::ok_line(&[("cached", "hit".into())], "ir"));
        let r = Response::parse(&ok).unwrap();
        assert!(r.ok);
        assert_eq!(r.tag(), Some("t7"));
        assert_eq!(r.field("cached"), Some("hit"));
        assert_eq!(r.payload, "ir");

        let e = Response::parse(&Response::err_line_tagged("t7", ErrorKind::Proto, "duplicate"))
            .unwrap();
        assert!(!e.ok);
        assert_eq!(e.tag(), Some("t7"));
        assert_eq!(e.error, Some(ErrorKind::Proto));
        assert_eq!(e.payload, "duplicate");

        // An untagged response has no tag.
        let plain = Response::parse(&Response::ok_line(&[], "x")).unwrap();
        assert_eq!(plain.tag(), None);
    }

    #[test]
    fn control_verbs_parse() {
        assert!(matches!(parse_request("STATS").unwrap(), Request::Stats));
        assert!(matches!(parse_request("PING\n").unwrap(), Request::Ping));
        assert!(matches!(parse_request("HEALTH\n").unwrap(), Request::Health));
        assert!(matches!(parse_request("SHUTDOWN\r\n").unwrap(), Request::Shutdown));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROBNICATE now").is_err());
        assert!(parse_request("COMPILE nonsense").is_err());
        assert!(parse_request("COMPILE config=LSLP").is_err(), "missing src=");
        assert!(parse_request("COMPILE pipeline=maybe src=x").is_err());
        assert!(parse_request("COMPILE timeout-ms=soon src=x").is_err());
        assert!(parse_request("COMPILE src=bad\\escape\\q").is_err());
        assert!(
            parse_request("COMPILE vectorwidth=8 src=x").is_err(),
            "unknown options are rejected, not ignored"
        );
    }

    #[test]
    fn responses_roundtrip() {
        let line =
            Response::ok_line(&[("cached", "hit".into()), ("trees", "2".into())], "v0 = add\n");
        let r = Response::parse(&line).unwrap();
        assert!(r.ok);
        assert_eq!(r.field("cached"), Some("hit"));
        assert_eq!(r.field("trees"), Some("2"));
        assert_eq!(r.payload, "v0 = add\n");

        let e = Response::parse(&Response::err_line(ErrorKind::Overload, "queue full")).unwrap();
        assert!(!e.ok);
        assert_eq!(e.error, Some(ErrorKind::Overload));
        assert_eq!(e.payload, "queue full");
    }

    #[test]
    fn every_error_kind_roundtrips() {
        for kind in [
            ErrorKind::Proto,
            ErrorKind::Parse,
            ErrorKind::Config,
            ErrorKind::Overload,
            ErrorKind::Shutdown,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::parse("nope"), None);
    }
}
