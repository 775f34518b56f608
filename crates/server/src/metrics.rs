//! Service metrics: request-latency percentiles and the `STATS` dump.
//!
//! Latencies go into a fixed-size ring reservoir (the last `CAP` request
//! durations, in microseconds); percentiles are computed on a sorted copy
//! at dump time. The dump itself is rendered from sorted keys throughout
//! (the [`lslp::Statistics`] registry is ordered by construction, the
//! gauge lines are emitted in a fixed order), so two dumps of the same
//! state are byte-identical — scripts can diff them.

use std::sync::Mutex;

use lslp::Statistics;

/// Ring-buffer latency reservoir.
pub struct LatencyReservoir {
    samples: Mutex<Ring>,
}

struct Ring {
    buf: Vec<u64>,
    next: usize,
    total: u64,
}

/// Reservoir capacity: enough for the percentile tail of a load-test run
/// without unbounded growth.
const CAP: usize = 8192;

/// A point-in-time percentile summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests ever recorded (not capped by the reservoir).
    pub count: u64,
    /// Median over the reservoir, microseconds.
    pub p50_us: u64,
    /// 99th percentile over the reservoir, microseconds.
    pub p99_us: u64,
    /// Maximum over the reservoir, microseconds.
    pub max_us: u64,
}

impl Default for LatencyReservoir {
    fn default() -> LatencyReservoir {
        LatencyReservoir::new()
    }
}

impl LatencyReservoir {
    /// An empty reservoir.
    pub fn new() -> LatencyReservoir {
        LatencyReservoir {
            samples: Mutex::new(Ring { buf: Vec::with_capacity(CAP), next: 0, total: 0 }),
        }
    }

    /// Record one request latency.
    pub fn record(&self, micros: u64) {
        let mut ring = self.samples.lock().expect("latency lock");
        ring.total += 1;
        if ring.buf.len() < CAP {
            ring.buf.push(micros);
        } else {
            let slot = ring.next;
            ring.buf[slot] = micros;
            ring.next = (slot + 1) % CAP;
        }
    }

    /// Percentiles over the current reservoir contents.
    pub fn summary(&self) -> LatencySummary {
        let (mut samples, count) = {
            let ring = self.samples.lock().expect("latency lock");
            (ring.buf.clone(), ring.total)
        };
        LatencySummary { count, ..percentiles(&mut samples) }
    }
}

/// Compute percentiles over a caller-held latency sample (used by the load
/// generator for client-side latencies; same definition as the server's).
pub fn percentiles(samples: &mut [u64]) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    samples.sort_unstable();
    let pick = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    LatencySummary {
        count: samples.len() as u64,
        p50_us: pick(0.50),
        p99_us: pick(0.99),
        max_us: *samples.last().expect("non-empty"),
    }
}

/// Render the `STATS` payload: the counter registry (sorted), then the
/// gauge block in fixed order. `extra` rows (queue depth etc.) are emitted
/// as given — callers keep them in a fixed order.
pub fn render_stats(
    registry: &Statistics,
    latency: &LatencyReservoir,
    extra: &[(&str, String)],
) -> String {
    use std::fmt::Write as _;
    let mut out = registry.to_string();
    let l = latency.summary();
    let _ = writeln!(
        out,
        "latency: count={} p50_us={} p99_us={} max_us={}",
        l.count, l.p50_us, l.p99_us, l.max_us
    );
    for (k, v) in extra {
        let _ = writeln!(out, "{k}: {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_math() {
        let r = LatencyReservoir::new();
        assert_eq!(r.summary(), LatencySummary::default());
        for v in 1..=100 {
            r.record(v);
        }
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 51, "index (99 * 0.5).round() = 50 → value 51");
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = LatencyReservoir::new();
        for _ in 0..CAP {
            r.record(1);
        }
        for _ in 0..CAP {
            r.record(1000);
        }
        let s = r.summary();
        assert_eq!(s.count, 2 * CAP as u64);
        assert_eq!(s.p50_us, 1000, "old epoch fully displaced");
    }

    #[test]
    fn stats_dump_is_deterministic_and_ordered() {
        let reg = Statistics::new();
        reg.add("server", "requests-ok", 2);
        reg.add("cse", "insts-merged", 1);
        let lat = LatencyReservoir::new();
        let a = render_stats(&reg, &lat, &[("queue", "depth=0 max=3 capacity=64".into())]);
        let b = render_stats(&reg, &lat, &[("queue", "depth=0 max=3 capacity=64".into())]);
        assert_eq!(a, b);
        let cse = a.find("cse - insts-merged").unwrap();
        let srv = a.find("server - requests-ok").unwrap();
        assert!(cse < srv, "registry rows sorted:\n{a}");
        assert!(a.contains("latency: count=0"));
        assert!(a.contains("queue: depth=0"));
    }
}
