//! Host-speed calibration for the timed metrics.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent for seconds to minutes as neighbours load the caches, memory
//! bus and sibling hardware threads. A [`Pace`] runs a fixed reference
//! task interleaved with the workload and so samples the host's speed at
//! the same moments. [`Pace::scaled`] converts a measured time to the time
//! it would have taken on a host that runs the reference task at its
//! nominal speed. The reference task is this module's own code and calls
//! nothing in the program, so a change to the program moves scaled times
//! exactly as it moves raw ones.
//!
//! Reference chunks are timed on the calling thread's CPU clock, so time
//! the thread spends preempted (by the daemon's threads in `serve`) does
//! not count as slowness.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Duration;

use crate::util::Rng;

/// The reference task's nominal time per chunk, in seconds (about its
/// mean on an otherwise idle 2-vCPU x86-64 Xeon host).
const NOMINAL_S: f64 = 90e-6;
/// Reference time run per unit of workload time in [`Pace::after`].
const SHARE: f64 = 1.0 / 8.0;

/// Instructions in the reference task's expression graph.
const GRAPH: usize = 1024;
/// Function arguments among them (the graph's leaves).
const ARGS: usize = 8;

/// One chunk of the reference task, a compiler pass in miniature: build a
/// random expression graph, value-number it (commutative operands sorted,
/// duplicates merged through a hash map), mark the instructions the last
/// few use, and print those. Returns a digest so nothing is optimised
/// away.
pub fn chunk(seed: u64) -> u64 {
    const OPS: [&str; 4] = ["add", "mul", "sub", "xor"];
    let mut rng = Rng::new(seed, 0x9ace);
    let mut insts: Vec<(u8, u32, u32)> = Vec::with_capacity(GRAPH);
    let mut leader: Vec<u32> = Vec::with_capacity(GRAPH);
    // A fixed-key hasher, so every run does the same work.
    let mut numbers: HashMap<(u8, u32, u32), u32, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(GRAPH, BuildHasherDefault::default());
    for i in 0..GRAPH as u32 {
        if (i as usize) < ARGS {
            insts.push((0, i, i));
            leader.push(i);
            continue;
        }
        let op = rng.below(OPS.len()) as u8;
        let a = leader[rng.below(i as usize)];
        let b = leader[rng.below(i as usize)];
        let key = if op != 2 && b < a { (op, b, a) } else { (op, a, b) };
        insts.push(key);
        leader.push(*numbers.entry(key).or_insert(i));
    }
    let mut live = vec![false; GRAPH];
    let mut stack: Vec<u32> = leader[GRAPH - 32..].to_vec();
    while let Some(v) = stack.pop() {
        if !std::mem::replace(&mut live[v as usize], true) && v as usize >= ARGS {
            let (_, a, b) = insts[v as usize];
            stack.extend([a, b]);
        }
    }
    let mut text = String::new();
    for (i, &(op, a, b)) in insts.iter().enumerate().filter(|(i, _)| live[*i]) {
        let _ = writeln!(text, "%{i} = {} i64 %{a}, %{b}", OPS[op as usize]);
    }
    text.len() as u64 ^ (numbers.len() as u64) << 32
}

/// Reference-task time interleaved with a workload.
#[derive(Debug, Default)]
pub struct Pace {
    chunks: u64,
    spent: Duration,
    owed: Duration,
}

impl Pace {
    /// Run one reference chunk and time it.
    pub fn sample(&mut self) {
        let t0 = thread_cpu_time();
        black_box(chunk(black_box(self.chunks)));
        self.spent += thread_cpu_time().saturating_sub(t0);
        self.chunks += 1;
    }

    /// Account `worked` of workload time, then run reference chunks until
    /// they have taken [`SHARE`] of the workload time so far.
    pub fn after(&mut self, worked: Duration) {
        self.owed += worked.mul_f64(SHARE);
        while self.spent < self.owed {
            self.sample();
        }
    }

    /// `seconds` measured on this host, as on a host that runs the
    /// reference task at its nominal speed (unchanged before any sample).
    pub fn scaled(&self, seconds: f64) -> f64 {
        if self.chunks == 0 {
            return seconds;
        }
        seconds * NOMINAL_S * self.chunks as f64 / self.spent.as_secs_f64().max(1e-9)
    }
}

/// CPU time consumed by the calling thread.
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout), and this clock exists on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_task_is_deterministic() {
        assert_eq!(chunk(3), chunk(3));
        assert_ne!(chunk(3), chunk(4));
    }

    #[test]
    fn pacing_keeps_its_share_and_scales_proportionally() {
        let mut pace = Pace::default();
        assert_eq!(pace.scaled(2.0), 2.0);
        pace.after(Duration::from_millis(8));
        assert!(pace.spent >= Duration::from_millis(1) && pace.chunks > 0);
        let (one, two) = (pace.scaled(1.0), pace.scaled(2.0));
        assert!(one > 0.0 && (two - 2.0 * one).abs() < 1e-12);
    }
}
