//! The benchmark's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer (frontend, core passes, vectorizer phases, IR printer,
//! interpreter, protocol parsers, result cache). A span has a name,
//! start and end (nanoseconds since the recorder was created), the span
//! that was open when it began (its parent), and the id of the operation
//! it belongs to. Spans stay in memory and are written out once, at the
//! end of the run; a layer's self time is its duration minus the part its
//! child spans cover.
//!
//! A disabled recorder (`--trace 0`) records nothing: `begin` returns a
//! dummy token and `end` ignores it, so untraced and traced runs share one
//! code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `frontend.compile`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// The operation (compiled function or request) the span belongs to.
    pub op: u64,
}

/// An open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(u32);

/// Aggregate self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time, nanoseconds.
    pub total_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span named `name` for operation `op`, nested under the
    /// innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span opened by [`Tracer::begin`]. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span (used for the per-pass timings `Session::optimize`
    /// reports, laid out back to back from `start`).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, dur: Duration) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.ns(start);
        let end_ns = start_ns + dur.as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the durations
    /// of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Render every span as tab-separated text: index, name, start,
    /// end, parent (`-` for a root) and operation id, one span a line.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("idx\tname\tstart_ns\tend_ns\tparent\top\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{i}\t{}\t{}\t{}\t", s.name, s.start_ns, s.end_ns);
            if s.parent == NO_PARENT {
                out.push('-');
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(out, "\t{}", s.op);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, 0);
        let st = t.self_times();
        let root_dur = spans[0].end_ns - spans[0].start_ns;
        let child_dur = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(st["root"].total_ns, root_dur - child_dur);
        assert_eq!(st["child"].total_ns, child_dur);
        assert!(t.render().lines().nth(2).unwrap().contains("child"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.record("y", 0, Instant::now(), Duration::from_millis(1));
        t.end(s);
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
