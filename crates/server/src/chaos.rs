//! Deterministic fault injection for the service layer.
//!
//! The fuzz subsystem's hidden Sabotage hook plants bugs inside the
//! *compiler* to prove the oracles fire; this module applies the same
//! philosophy to the *daemon*: a seeded [`ChaosConfig`] makes `lslpd`
//! drop accepted connections, sever connections mid-request, delay or
//! drop responses, panic workers mid-compile, and corrupt disk cache
//! entries as they are written — so the self-healing machinery
//! (watchdog respawn, journal quarantine, client retry/reconnect) is
//! exercised by tests instead of trusted on faith.
//!
//! Determinism: every injection site owns a monotonically increasing
//! draw counter, and the decision for draw `n` at site `s` is a pure
//! function of `(seed, s, n)` ([`splitmix64`]). Thread interleaving may
//! change *which request* hits a fault, but the fault schedule per site
//! — e.g. "the 7th job popped panics its worker" — is fixed by the
//! seed, which is what makes chaos CI runs reproducible enough to
//! assert on (`worker-restarts > 0` with a known seed is a certainty,
//! not a coin flip).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64: a tiny, high-quality mixing function. Also used by the
/// client for deterministic backoff jitter.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Parsed `--chaos` specification: per-site fault probabilities plus the
/// seed that makes the schedule deterministic.
///
/// Spec grammar (comma-separated `key=value`, all keys optional):
///
/// ```text
/// seed=N             schedule seed (default 0)
/// accept-drop=P      close an accepted connection immediately
/// read-drop=P        sever the connection after reading a request
/// write-drop=P       sever the connection instead of responding
/// delay=MS:P         sleep MS milliseconds before responding
/// panic=P            panic the worker mid-compile (thread dies)
/// corrupt=P          flip a byte in a disk cache entry as it is written
/// ```
///
/// Probabilities `P` are floats in `[0, 1]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability an accepted connection is dropped on arrival.
    pub accept_drop: f64,
    /// Probability a connection is severed right after a request is read.
    pub read_drop: f64,
    /// Probability a connection is severed instead of writing the response.
    pub write_drop: f64,
    /// Added response delay in milliseconds (with [`ChaosConfig::delay_prob`]).
    pub delay_ms: u64,
    /// Probability the delay fires.
    pub delay_prob: f64,
    /// Probability a worker panics when it picks up a job.
    pub worker_panic: f64,
    /// Probability a disk cache entry is corrupted as it is written.
    pub corrupt_entry: f64,
}

impl ChaosConfig {
    /// Parse a `--chaos` spec string.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys, malformed numbers, or
    /// probabilities outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("chaos: expected key=value, got `{item}`"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|e| format!("chaos: bad probability `{v}`: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos: probability `{v}` outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    cfg.seed = value.parse().map_err(|e| format!("chaos: bad seed: {e}"))?;
                }
                "accept-drop" => cfg.accept_drop = prob(value)?,
                "read-drop" => cfg.read_drop = prob(value)?,
                "write-drop" => cfg.write_drop = prob(value)?,
                "panic" => cfg.worker_panic = prob(value)?,
                "corrupt" => cfg.corrupt_entry = prob(value)?,
                "delay" => {
                    let (ms, p) = value
                        .split_once(':')
                        .ok_or_else(|| format!("chaos: delay wants MS:P, got `{value}`"))?;
                    cfg.delay_ms = ms.parse().map_err(|e| format!("chaos: bad delay ms: {e}"))?;
                    cfg.delay_prob = prob(p)?;
                }
                other => return Err(format!("chaos: unknown key `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Whether any fault has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.accept_drop > 0.0
            || self.read_drop > 0.0
            || self.write_drop > 0.0
            || self.delay_prob > 0.0
            || self.worker_panic > 0.0
            || self.corrupt_entry > 0.0
    }
}

/// Injection sites, each with its own draw counter.
#[derive(Clone, Copy)]
enum Site {
    Accept = 0,
    Read = 1,
    Write = 2,
    Delay = 3,
    Panic = 4,
    Corrupt = 5,
}

const SITES: usize = 6;

/// The live injector: a [`ChaosConfig`] plus per-site draw counters.
pub struct Chaos {
    cfg: ChaosConfig,
    draws: [AtomicU64; SITES],
    injected: [AtomicU64; SITES],
}

impl Chaos {
    /// Build an injector from a parsed config.
    pub fn new(cfg: ChaosConfig) -> Chaos {
        Chaos {
            cfg,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Deterministic biased coin for draw `n` at `site`.
    fn roll(&self, site: Site, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let n = self.draws[site as usize].fetch_add(1, Ordering::Relaxed);
        let x = splitmix64(
            self.cfg
                .seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((site as u64) << 56)
                .wrapping_add(n),
        );
        let fire = ((x >> 11) as f64 / (1u64 << 53) as f64) < prob;
        if fire {
            self.injected[site as usize].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Drop this freshly accepted connection?
    pub fn drop_accept(&self) -> bool {
        self.roll(Site::Accept, self.cfg.accept_drop)
    }

    /// Sever the connection after reading this request?
    pub fn drop_read(&self) -> bool {
        self.roll(Site::Read, self.cfg.read_drop)
    }

    /// Sever the connection instead of writing this response?
    pub fn drop_write(&self) -> bool {
        self.roll(Site::Write, self.cfg.write_drop)
    }

    /// Delay this response?
    pub fn response_delay(&self) -> Option<Duration> {
        if self.roll(Site::Delay, self.cfg.delay_prob) {
            Some(Duration::from_millis(self.cfg.delay_ms))
        } else {
            None
        }
    }

    /// Panic the calling worker thread? (The caller panics; the watchdog
    /// respawns the worker.)
    pub fn maybe_panic_worker(&self) {
        if self.roll(Site::Panic, self.cfg.worker_panic) {
            panic!("chaos: injected worker panic (seed={})", self.cfg.seed);
        }
    }

    /// Corrupt the disk entry about to be written?
    pub fn corrupt_entry(&self) -> bool {
        self.roll(Site::Corrupt, self.cfg.corrupt_entry)
    }

    /// Total faults injected across all sites (for the STATS dump).
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        let c = ChaosConfig::parse("seed=7,panic=0.1,read-drop=0.05,delay=10:0.2").unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.worker_panic, 0.1);
        assert_eq!(c.read_drop, 0.05);
        assert_eq!((c.delay_ms, c.delay_prob), (10, 0.2));
        assert!(c.is_active());
        assert!(!ChaosConfig::parse("seed=3").unwrap().is_active());
        assert!(ChaosConfig::parse("").unwrap() == ChaosConfig::default());
        assert!(ChaosConfig::parse("panic=1.5").is_err(), "probability out of range");
        assert!(ChaosConfig::parse("frobnicate=0.1").is_err(), "unknown key");
        assert!(ChaosConfig::parse("delay=10").is_err(), "delay wants MS:P");
        assert!(ChaosConfig::parse("seed").is_err(), "key without value");
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = ChaosConfig::parse("seed=7,panic=0.1").unwrap();
        let schedule = |cfg: &ChaosConfig| -> Vec<bool> {
            let c = Chaos::new(cfg.clone());
            (0..64).map(|_| c.roll(Site::Panic, c.cfg.worker_panic)).collect()
        };
        assert_eq!(schedule(&cfg), schedule(&cfg), "same seed, same schedule");
        let other = ChaosConfig::parse("seed=8,panic=0.1").unwrap();
        assert_ne!(schedule(&cfg), schedule(&other), "different seed, different schedule");
    }

    #[test]
    fn ci_seed_fires_a_panic_within_64_draws() {
        // `crash_recovery.rs` asserts `worker-restarts > 0` after 64
        // requests with this exact seed; that is only sound because the
        // schedule is deterministic and fires within the first 64 draws.
        let c = Chaos::new(ChaosConfig::parse("seed=7,panic=0.1").unwrap());
        let fired = (0..64).filter(|_| c.roll(Site::Panic, c.cfg.worker_panic)).count();
        assert!(fired >= 1, "seed=7 must fire at least one panic in 64 draws");
        assert!(fired <= 16, "p=0.1 should not fire wildly often, got {fired}");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let c = Chaos::new(ChaosConfig { seed: 42, read_drop: 0.25, ..ChaosConfig::default() });
        let fired = (0..10_000).filter(|_| c.drop_read()).count();
        assert!((2_000..3_000).contains(&fired), "~25% of 10k, got {fired}");
        assert_eq!(c.injected_total(), fired as u64);
    }

    #[test]
    fn zero_probability_never_fires_or_draws() {
        let c = Chaos::new(ChaosConfig::default());
        for _ in 0..100 {
            assert!(!c.drop_accept());
            assert!(!c.drop_write());
            assert!(c.response_delay().is_none());
            c.maybe_panic_worker(); // must not panic
        }
        assert_eq!(c.injected_total(), 0);
    }
}
