//! The output oracle: run a function in `lslp_interp` on seeded memory and
//! compare the final memory of two functions.
//!
//! Every pointer parameter gets its own buffer, named by parameter
//! position (so a renamed parameter cannot hide a mismatch) and filled
//! from the workload's seed. Integers compare bit for bit; `f64` buffers
//! compare within a relative tolerance, because the vectorizer may
//! reassociate fast-math chains.

use lslp_interp::{measure_cycles, Memory, Value};
use lslp_ir::{Function, Type};
use lslp_target::CostModel;

use crate::util::Rng;

/// Relative `f64` tolerance of the Table 2 kernel tests.
pub const KERNEL_TOLERANCE: f64 = 1e-9;
/// Relative `f64` tolerance of the generated-program tests (deeper
/// reassociated chains than the hand-written kernels).
pub const GENERATED_TOLERANCE: f64 = 1e-8;

/// How to execute one function: buffer element kind and length, the
/// index argument of each invocation, and the memory seed.
#[derive(Clone, Debug)]
pub struct ExecSpec {
    /// `f64` buffers (else `i64`).
    pub float: bool,
    /// Elements per buffer.
    pub len: usize,
    /// The value of the index parameter on each invocation, in order.
    pub invocations: Vec<i64>,
    /// Seed of the initial buffer contents.
    pub mem_seed: u64,
    /// Relative tolerance for `f64` buffers.
    pub tolerance: f64,
}

/// Final memory and simulated cycles of one execution.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Buffer contents after the last invocation, in parameter order.
    pub buffers: Vec<Vec<u8>>,
    /// Simulated cycles summed over the invocations.
    pub cycles: i64,
}

/// Execute `f` under `spec`, pricing cycles with `tm`.
///
/// # Errors
///
/// An interpreter fault (out-of-bounds access, type error) as a message.
pub fn execute(f: &Function, spec: &ExecSpec, tm: &CostModel) -> Result<Outcome, String> {
    let mut mem = Memory::new();
    let mut rng = Rng::new(spec.mem_seed, 0x6d656d);
    let mut names = Vec::new();
    for (idx, &p) in f.params().iter().enumerate() {
        if f.ty(p) != Type::PTR {
            continue;
        }
        let name = format!("p{idx}");
        if spec.float {
            let init: Vec<f64> =
                (0..spec.len).map(|_| 0.5 + (rng.next_u64() % 1024) as f64 / 1024.0).collect();
            mem.alloc_f64(&name, &init);
        } else {
            let init: Vec<i64> =
                (0..spec.len).map(|_| (rng.next_u64() % 4096) as i64 + 1).collect();
            mem.alloc_i64(&name, &init);
        }
        names.push(name);
    }
    let mut cycles = 0;
    for &i in &spec.invocations {
        let args: Vec<Value> = f
            .params()
            .iter()
            .enumerate()
            .map(|(idx, &p)| {
                if f.ty(p) == Type::PTR {
                    mem.ptr(&format!("p{idx}")).expect("buffer allocated above")
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        cycles += measure_cycles(f, &args, &mut mem, tm)
            .map_err(|e| format!("@{}: execution failed: {e}", f.name()))?
            .cycles;
    }
    let buffers =
        names.iter().map(|n| mem.bytes(n).expect("buffer allocated above").to_vec()).collect();
    Ok(Outcome { buffers, cycles })
}

/// Compare the memory two executions left behind.
///
/// # Errors
///
/// A description of the first differing element.
pub fn same_memory(reference: &Outcome, got: &Outcome, spec: &ExecSpec) -> Result<(), String> {
    if reference.buffers.len() != got.buffers.len() {
        return Err("buffer count differs".into());
    }
    for (b, (x, y)) in reference.buffers.iter().zip(&got.buffers).enumerate() {
        if x == y {
            continue;
        }
        if x.len() != y.len() || !spec.float {
            return Err(format!("buffer p{b} differs"));
        }
        for (k, (u, v)) in x.chunks_exact(8).zip(y.chunks_exact(8)).enumerate() {
            let u = f64::from_le_bytes(u.try_into().expect("8-byte chunk"));
            let v = f64::from_le_bytes(v.try_into().expect("8-byte chunk"));
            // Written as `!close` so a NaN on either side is a mismatch.
            let close = (u - v).abs() <= spec.tolerance * u.abs().max(v.abs()).max(1.0);
            if !close {
                return Err(format!("buffer p{b}[{k}]: {u} != {v}"));
            }
        }
    }
    Ok(())
}
