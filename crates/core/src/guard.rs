//! Transactional pass guard: verified checkpoints, panic isolation, and
//! scalar fallback for the vectorizer pipeline.
//!
//! Every pass invocation and per-seed vectorization attempt can run as a
//! *transaction*: a rollback point is established, the transform runs
//! inside [`std::panic::catch_unwind`], and the result is checked before
//! it is committed — IR verification always (release builds included),
//! plus a differential execution against the scalar original with the
//! [`lslp_interp`] oracle when *paranoid* mode is on. Any panic, verifier
//! error, or oracle mismatch rolls the function back to the rollback
//! point bit-for-bit, records a structured [`Incident`], and lets
//! compilation continue with the scalar code — a miscompiling or crashing
//! transform degrades to a missed optimization instead of a wrong program
//! or a dead compiler.
//!
//! The [`GuardMode`] knob selects the failure semantics:
//!
//! * [`GuardMode::Rollback`] (default) — roll back, record, continue;
//! * [`GuardMode::Strict`] — abort the pass with a [`GuardError`] on the
//!   first incident (for CI and debugging, where a rollback would hide
//!   the bug);
//! * [`GuardMode::Off`] — the historical behavior: no rollback point, no
//!   panic isolation, verification only via `debug_assert!` at the call
//!   sites.
//!
//! Orthogonally, [`RollbackStrategy`] selects the rollback *mechanism*:
//!
//! * [`RollbackStrategy::Delta`] (default) — open an IR transaction
//!   ([`Function::begin_txn`]); rollback replays the delta log in reverse,
//!   so a committed attempt costs ~nothing and a rollback costs
//!   O(touched instructions) instead of O(function). Commits verify
//!   incrementally ([`lslp_ir::verify_function_touched`]).
//! * [`RollbackStrategy::Snapshot`] — the historical mechanism: a full
//!   `Function::clone()` before the transform, restored by move on
//!   failure. Kept as a reference oracle for the delta log, selected on
//!   [`crate::VectorizerConfig::rollback`] (not a user-facing guard mode).
//! * [`RollbackStrategy::Differential`] — run *both* mechanisms and
//!   assert on every rollback that the delta-restored function is
//!   bit-identical (printed form and epoch) to the snapshot. A divergence
//!   is a bug in the delta log and panics immediately.
//!
//! See `DESIGN.md` § "Pass guard & failure semantics" and `docs/IR.md`
//! § "Transactions" for the underlying delta-log contract.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use lslp_interp::{run_function, Memory, Value};
use lslp_ir::{Function, ScalarType, TxnMark, Type};

/// Failure semantics of the transactional pass guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GuardMode {
    /// No guard: transforms run unchecked, panics propagate, verification
    /// happens only in debug builds (the historical behavior).
    Off,
    /// Roll back to the pre-transform snapshot on any incident, record it,
    /// and continue with the scalar code.
    #[default]
    Rollback,
    /// Abort with a [`GuardError`] on the first incident.
    Strict,
}

impl GuardMode {
    /// Parse a CLI spelling (`off`, `rollback`, `strict`).
    pub fn parse(s: &str) -> Option<GuardMode> {
        match s {
            "off" => Some(GuardMode::Off),
            "rollback" => Some(GuardMode::Rollback),
            "strict" => Some(GuardMode::Strict),
            _ => None,
        }
    }
}

impl fmt::Display for GuardMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GuardMode::Off => "off",
            GuardMode::Rollback => "rollback",
            GuardMode::Strict => "strict",
        })
    }
}

/// The mechanism a guarded transaction uses to restore the pre-transform
/// state on failure. Orthogonal to [`GuardMode`] (which decides what
/// *happens* after a failure).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RollbackStrategy {
    /// Delta-undo log (default): open an IR transaction; rollback replays
    /// only the touched records, commit discards the log. O(changes), not
    /// O(function).
    #[default]
    Delta,
    /// Full `Function::clone()` snapshot, restored by move on failure.
    /// The historical mechanism; kept as a debug fallback.
    Snapshot,
    /// Run both mechanisms and assert delta-rollback ≡ snapshot-rollback
    /// (printed form and epoch) on every rollback. Debug/CI mode; a
    /// divergence panics.
    Differential,
}

impl RollbackStrategy {
    /// Parse a strategy spelling (`delta`, `snapshot`, `differential`).
    pub fn parse(s: &str) -> Option<RollbackStrategy> {
        match s {
            "delta" => Some(RollbackStrategy::Delta),
            "snapshot" => Some(RollbackStrategy::Snapshot),
            "differential" => Some(RollbackStrategy::Differential),
            _ => None,
        }
    }
}

impl fmt::Display for RollbackStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RollbackStrategy::Delta => "delta",
            RollbackStrategy::Snapshot => "snapshot",
            RollbackStrategy::Differential => "differential",
        })
    }
}

/// The complete guard configuration: failure semantics, rollback
/// mechanism, and whether the differential-execution oracle runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GuardPolicy {
    /// What happens after an incident (rollback / abort / nothing).
    pub mode: GuardMode,
    /// How the pre-transform state is restored.
    pub strategy: RollbackStrategy,
    /// Whether to run the differential-execution oracle on every commit.
    /// Paranoid mode keeps a snapshot for the oracle's "before" side even
    /// under [`RollbackStrategy::Delta`].
    pub paranoid: bool,
}

impl GuardPolicy {
    /// A policy with the given failure semantics and default mechanism.
    pub fn new(mode: GuardMode) -> GuardPolicy {
        GuardPolicy { mode, ..GuardPolicy::default() }
    }

    /// Replace the rollback mechanism.
    pub fn strategy(mut self, strategy: RollbackStrategy) -> GuardPolicy {
        self.strategy = strategy;
        self
    }

    /// Enable or disable the paranoid oracle.
    pub fn paranoid(mut self, paranoid: bool) -> GuardPolicy {
        self.paranoid = paranoid;
        self
    }
}

/// What kind of failure a guarded transaction hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IncidentKind {
    /// The transform panicked; the unwind was caught.
    Panic,
    /// The transformed function failed IR verification.
    VerifyError,
    /// Paranoid mode: the transformed function computed a different memory
    /// state than the pre-transform function on synthesized inputs.
    OracleMismatch,
    /// A compile-fuel budget (wall-clock or graph node count) ran out and
    /// the work was truncated or abandoned.
    FuelExhausted,
    /// A seed group the vectorizer cannot process (e.g. a store whose
    /// stored value has no element type); skipped.
    UnsupportedSeed,
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IncidentKind::Panic => "panic",
            IncidentKind::VerifyError => "verify error",
            IncidentKind::OracleMismatch => "oracle mismatch",
            IncidentKind::FuelExhausted => "fuel exhausted",
            IncidentKind::UnsupportedSeed => "unsupported seed",
        })
    }
}

/// A structured record of one guarded-transaction failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Incident {
    /// Which pass (or pass stage) was running, e.g. `"vectorize"`,
    /// `"simplify"`.
    pub pass: String,
    /// The seed group description for per-seed transactions, if any.
    pub seed: Option<String>,
    /// The failure class.
    pub kind: IncidentKind,
    /// Human-readable details (panic message, verifier error, mismatch
    /// location).
    pub detail: String,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.pass)?;
        if let Some(seed) = &self.seed {
            write!(f, " (seed {seed})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The error [`GuardMode::Strict`] aborts with: the first incident.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GuardError(pub Incident);

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guard (strict): {}", self.0)
    }
}

impl std::error::Error for GuardError {}

thread_local! {
    /// Set while a guarded body runs, so the panic hook stays silent for
    /// panics the guard is about to catch and convert into incidents.
    static GUARD_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr report for panics occurring inside a guarded transaction on this
/// thread; all other panics keep the previous hook's behavior.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !GUARD_ACTIVE.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A lazily evaluated seed description: only rendered when an incident is
/// actually recorded, so the hot path never pays the formatting cost.
pub type SeedDesc<'a> = &'a dyn Fn(&Function) -> String;

/// Pass-instrumentation hooks: the rollback-point / verify / rollback
/// machinery of the transactional guard, factored out so the pass manager
/// (`crate::pm::PassManager`) wraps whole passes with the same
/// before/after-pass protocol that per-seed vectorization transactions
/// use, instead of every call site re-implementing the wrapping.
///
/// Protocol:
///
/// 1. [`GuardInstrumentation::before_pass`] — establish the rollback
///    point (open an IR transaction and/or take a snapshot, per
///    [`RollbackStrategy`]);
/// 2. run the transform (under [`GuardInstrumentation::catch_panics`] when
///    panic isolation is wanted);
/// 3. [`GuardInstrumentation::after_pass`] — verify the mutated function
///    (plus the differential-execution oracle in paranoid mode) and either
///    commit (`None`) or roll back and return the [`Incident`].
///
/// The caller applies the [`GuardMode`] policy to a returned incident via
/// [`record`]; [`GuardInstrumentation::transact`] bundles all of the above
/// for one-shot transactions.
pub struct GuardInstrumentation {
    policy: GuardPolicy,
    snapshot: Option<Function>,
    txn: Option<TxnMark>,
}

impl GuardInstrumentation {
    /// Instrumentation for the given policy. Installs the quiet panic hook
    /// once per process when the guard is active.
    pub fn new(policy: GuardPolicy) -> GuardInstrumentation {
        if policy.mode != GuardMode::Off {
            install_quiet_hook();
        }
        GuardInstrumentation { policy, snapshot: None, txn: None }
    }

    /// The failure semantics this instrumentation applies.
    pub fn mode(&self) -> GuardMode {
        self.policy.mode
    }

    /// The full guard policy this instrumentation applies.
    pub fn policy(&self) -> GuardPolicy {
        self.policy
    }

    /// Before-pass hook: establish the rollback point. Under
    /// [`RollbackStrategy::Delta`] this opens an IR transaction (no clone);
    /// under [`RollbackStrategy::Snapshot`] it clones `f`; under
    /// [`RollbackStrategy::Differential`] it does both. Paranoid mode
    /// additionally keeps a snapshot in any strategy — the oracle needs the
    /// pre-transform function to execute. No-op in [`GuardMode::Off`].
    pub fn before_pass(&mut self, f: &mut Function) {
        if self.policy.mode == GuardMode::Off {
            return;
        }
        if self.policy.strategy != RollbackStrategy::Snapshot {
            self.txn = Some(f.begin_txn());
        }
        if self.policy.strategy != RollbackStrategy::Delta || self.policy.paranoid {
            self.snapshot = Some(f.clone());
        }
    }

    /// Run `body` with panics caught and the default panic report
    /// suppressed (the guard converts the payload into an incident).
    pub fn catch_panics<T>(&self, body: impl FnOnce() -> T) -> Result<T, Box<dyn Any + Send>> {
        GUARD_ACTIVE.with(|g| g.set(true));
        let r = panic::catch_unwind(AssertUnwindSafe(body));
        GUARD_ACTIVE.with(|g| g.set(false));
        r
    }

    /// After-pass hook. `outcome` is `Ok(mutated)` when the transform
    /// completed (`mutated` says whether `f` changed, so clean read-only
    /// runs skip verification and oracle costs) or `Err(payload)` when it
    /// panicked. Returns `None` on commit (closing the IR transaction and
    /// discarding the rollback point); on any failure restores `f` to the
    /// `before_pass` state bit-for-bit and returns the incident. `seed` is
    /// evaluated lazily, only when an incident is built (after rollback,
    /// so it describes the pre-transform state).
    ///
    /// Commits under [`RollbackStrategy::Delta`] verify incrementally:
    /// only instructions whose payload (or operand payload) the
    /// transaction touched get the full per-opcode type check.
    pub fn after_pass(
        &mut self,
        pass: &str,
        seed: Option<SeedDesc>,
        f: &mut Function,
        outcome: Result<bool, Box<dyn Any + Send>>,
    ) -> Option<Incident> {
        let snapshot = self.snapshot.take();
        let txn = self.txn.take();
        if self.policy.mode == GuardMode::Off {
            if let Err(payload) = outcome {
                panic::resume_unwind(payload);
            }
            return None;
        }
        if self.policy.strategy != RollbackStrategy::Snapshot {
            assert!(txn.is_some(), "before_pass must run before after_pass");
        } else {
            assert!(snapshot.is_some(), "before_pass must run before after_pass");
        }
        let commit = |f: &mut Function| {
            if let Some(mark) = txn {
                f.commit_txn(mark);
            }
        };
        let failure = match outcome {
            Err(payload) => Some((IncidentKind::Panic, panic_message(payload))),
            Ok(mutated) => {
                if !mutated {
                    commit(f);
                    return None;
                }
                let verdict = match txn {
                    Some(mark) => lslp_ir::verify_function_touched(f, &f.touched_since(mark)),
                    None => lslp_ir::verify_function(f),
                };
                match verdict {
                    Err(e) => Some((IncidentKind::VerifyError, e.to_string())),
                    Ok(()) => oracle_check(self.policy.paranoid, snapshot.as_ref(), f)
                        .err()
                        .map(|detail| (IncidentKind::OracleMismatch, detail)),
                }
            }
        };
        match failure {
            None => {
                commit(f);
                None
            }
            Some((kind, detail)) => {
                restore(self.policy.strategy, f, txn, snapshot, pass);
                Some(Incident { pass: pass.to_string(), seed: seed.map(|d| d(f)), kind, detail })
            }
        }
    }

    /// One complete guarded transaction over `f`: snapshot, run `body`
    /// (which returns `(result, mutated)`), verify, commit or roll back.
    /// In [`GuardMode::Off`] the body runs unguarded and panics propagate.
    ///
    /// # Errors
    ///
    /// Returns the [`Incident`] when the transaction was rolled back; the
    /// caller decides between recording and aborting (see [`record`]).
    pub fn transact<T>(
        &mut self,
        pass: &str,
        seed: Option<SeedDesc>,
        f: &mut Function,
        body: impl FnOnce(&mut Function) -> (T, bool),
    ) -> Result<T, Incident> {
        if self.policy.mode == GuardMode::Off {
            let (t, _mutated) = body(f);
            return Ok(t);
        }
        self.before_pass(f);
        let (value, flag) = match self.catch_panics(AssertUnwindSafe(|| body(f))) {
            Ok((t, mutated)) => (Some(t), Ok(mutated)),
            Err(payload) => (None, Err(payload)),
        };
        match self.after_pass(pass, seed, f, flag) {
            None => Ok(value.expect("commit implies the body completed")),
            Some(incident) => Err(incident),
        }
    }
}

/// Restore `f` to its pre-transform state using the given mechanism.
/// Under [`RollbackStrategy::Differential`], both mechanisms run and any
/// divergence between them panics — that is the mode's purpose.
fn restore(
    strategy: RollbackStrategy,
    f: &mut Function,
    txn: Option<TxnMark>,
    snapshot: Option<Function>,
    pass: &str,
) {
    match strategy {
        RollbackStrategy::Delta => {
            f.rollback_txn(txn.expect("delta guard holds an open transaction"));
        }
        RollbackStrategy::Snapshot => {
            // Restore by move: the snapshot is owned here and consumed by
            // exactly one rollback, so no second clone is needed.
            *f = snapshot.expect("snapshot guard holds a snapshot");
        }
        RollbackStrategy::Differential => {
            let snap = snapshot.expect("differential guard holds a snapshot");
            f.rollback_txn(txn.expect("differential guard holds an open transaction"));
            let delta_print = lslp_ir::print_function(f);
            let snap_print = lslp_ir::print_function(&snap);
            assert!(
                delta_print == snap_print,
                "differential guard: delta-rollback diverged from snapshot-rollback \
                 in pass {pass}\n--- delta-restored ---\n{delta_print}\
                 --- snapshot ---\n{snap_print}"
            );
            assert_eq!(
                f.epoch(),
                snap.epoch(),
                "differential guard: delta-rollback restored a different epoch \
                 than the snapshot in pass {pass}"
            );
        }
    }
}

/// Run `body` over `f` as a guarded transaction (convenience wrapper over
/// [`GuardInstrumentation::transact`] + [`record`]).
///
/// `body` returns `(result, mutated)`; `mutated` tells the guard whether
/// `f` was actually changed, so clean read-only attempts skip the
/// verification and oracle costs. On commit the result is returned as
/// `Ok(Some(result))`. On an incident:
///
/// * [`GuardMode::Rollback`] restores `f` from the snapshot, pushes the
///   incident onto `incidents`, and returns `Ok(None)`;
/// * [`GuardMode::Strict`] restores `f` and returns `Err(GuardError)`;
/// * [`GuardMode::Off`] never produces incidents — `body` runs unguarded
///   and panics propagate.
///
/// # Errors
///
/// Returns [`GuardError`] carrying the incident in strict mode.
pub fn run_guarded<T>(
    f: &mut Function,
    policy: GuardPolicy,
    pass: &str,
    seed: Option<SeedDesc>,
    incidents: &mut Vec<Incident>,
    body: impl FnOnce(&mut Function) -> (T, bool),
) -> Result<Option<T>, GuardError> {
    let mut gi = GuardInstrumentation::new(policy);
    match gi.transact(pass, seed, f, body) {
        Ok(t) => Ok(Some(t)),
        Err(incident) => {
            record(policy.mode, incidents, incident)?;
            Ok(None)
        }
    }
}

/// Record an incident according to `mode`: push it in rollback mode, turn
/// it into a [`GuardError`] in strict mode. (For failures that need no
/// rollback, like unsupported seeds and exhausted budgets.)
///
/// # Errors
///
/// Returns [`GuardError`] carrying the incident in strict mode.
pub fn record(
    mode: GuardMode,
    incidents: &mut Vec<Incident>,
    incident: Incident,
) -> Result<(), GuardError> {
    match mode {
        GuardMode::Strict => Err(GuardError(incident)),
        _ => {
            incidents.push(incident);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Differential execution oracle (paranoid mode)
// ---------------------------------------------------------------------------

/// Bytes allocated per pointer parameter for oracle runs — 64 elements of
/// the widest scalar, comfortably covering the constant offsets straight-
/// line kernels use.
const ORACLE_BUF_BYTES: usize = 64 * 8;

fn touches_float(f: &Function) -> bool {
    (0..f.num_values()).any(|i| {
        matches!(
            f.ty(lslp_ir::ValueId::from_raw(i as u32)).elem(),
            Some(ScalarType::F32 | ScalarType::F64)
        )
    })
}

/// Build deterministic inputs for `f`: one zero-based buffer per pointer
/// parameter (filled with a fixed pseudo-random pattern), index/scalar
/// parameters set to small constants. Both sides of the differential run
/// get bit-identical initial states.
fn synth_inputs(f: &Function, float_mode: bool) -> (Memory, Vec<Value>) {
    let mut mem = Memory::new();
    let mut args = Vec::new();
    for (k, &param) in f.params().iter().enumerate() {
        let ty = f.ty(param);
        if ty == Type::PTR {
            // Stable per-position names: parameter names can repeat or be
            // absent, and both runs must agree on the buffer identity.
            let name = format!("p{k}");
            let n = ORACLE_BUF_BYTES / 8;
            let ptr = if float_mode {
                let init: Vec<f64> = (0..n)
                    .map(|j| 0.25 + ((j as u64 * 37 + k as u64 * 11) % 64) as f64 / 16.0)
                    .collect();
                mem.alloc_f64(&name, &init)
            } else {
                let init: Vec<i64> = (0..n)
                    .map(|j| ((j as u64 * 2654435761 + k as u64 * 97) % 1021) as i64 - 300)
                    .collect();
                mem.alloc_i64(&name, &init)
            };
            args.push(ptr);
        } else {
            match ty.elem() {
                Some(ScalarType::F32 | ScalarType::F64) => args.push(Value::Float(1.5)),
                _ => args.push(Value::Int(0)),
            }
        }
    }
    (mem, args)
}

fn capture(f: &Function, float_mode: bool) -> Option<Memory> {
    let (mut mem, args) = synth_inputs(f, float_mode);
    run_function(f, &args, &mut mem).ok()?;
    Some(mem)
}

/// Differential execution: run `before` and `after` on identical
/// synthesized inputs and compare final memory states — bit-exact for
/// integer programs, within relative tolerance for float programs (the
/// vectorizer reassociates under fast-math). A `before` that does not
/// execute (e.g. out-of-bounds under the synthesized inputs) makes the
/// oracle inconclusive, which counts as agreement. `before` is the
/// paranoid-mode snapshot; it is always present when `paranoid` is set
/// (see [`GuardInstrumentation::before_pass`]).
fn oracle_check(paranoid: bool, before: Option<&Function>, after: &Function) -> Result<(), String> {
    if !paranoid {
        return Ok(());
    }
    let before = before.expect("paranoid mode keeps a snapshot for the oracle");
    let float_mode = touches_float(before);
    let Some(pre) = capture(before, float_mode) else {
        return Ok(());
    };
    let Some(post) = capture(after, float_mode) else {
        return Err("transformed function failed to execute".to_string());
    };
    for name in pre.buffer_names() {
        let a = pre.bytes(name).expect("buffer exists");
        let b = post.bytes(name).ok_or_else(|| format!("buffer {name} disappeared"))?;
        if a == b {
            continue;
        }
        if !float_mode {
            return Err(format!("integer buffer {name} differs"));
        }
        for (idx, (ca, cb)) in a.chunks(8).zip(b.chunks(8)).enumerate() {
            let x = f64::from_le_bytes(ca.try_into().expect("8-byte chunk"));
            let y = f64::from_le_bytes(cb.try_into().expect("8-byte chunk"));
            let tol = 1e-8 * x.abs().max(y.abs()).max(1.0);
            if (x - y).abs() > tol {
                return Err(format!("{name}[{idx}] = {x} vs {y}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_ir::{FunctionBuilder, Type};

    fn store_kernel() -> Function {
        let mut f = Function::new("k");
        let pa = f.add_param("A", Type::PTR);
        let x = f.add_param("x", Type::I64);
        let i = f.add_param("i", Type::I64);
        let mut b = FunctionBuilder::new(&mut f);
        let g = b.gep(pa, i, 8);
        b.store(x, g);
        f
    }

    #[test]
    fn commit_passes_result_through() {
        let mut f = store_kernel();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback);
        let r = run_guarded(&mut f, policy, "test", None, &mut incidents, |_| (42, false));
        assert_eq!(r.unwrap(), Some(42));
        assert!(incidents.is_empty());
    }

    #[test]
    fn panic_rolls_back_and_records() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let mut incidents = Vec::new();
        let desc = |_: &Function| "A[+0..+8)".to_string();
        let r = run_guarded(
            &mut f,
            GuardPolicy::new(GuardMode::Rollback),
            "test",
            Some(&desc as SeedDesc),
            &mut incidents,
            |f| {
                f.add_param("junk", Type::I64); // partial mutation, then...
                panic!("injected panic");
                #[allow(unreachable_code)]
                ((), true)
            },
        );
        assert_eq!(r.unwrap(), None);
        assert_eq!(lslp_ir::print_function(&f), before, "must restore bit-for-bit");
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, IncidentKind::Panic);
        assert_eq!(incidents[0].detail, "injected panic");
        assert_eq!(incidents[0].seed.as_deref(), Some("A[+0..+8)"));
    }

    #[test]
    fn strict_mode_aborts_with_error() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let mut incidents = Vec::new();
        let r = run_guarded(
            &mut f,
            GuardPolicy::new(GuardMode::Strict),
            "test",
            None,
            &mut incidents,
            |_| -> ((), bool) { panic!("boom") },
        );
        let err = r.unwrap_err();
        assert_eq!(err.0.kind, IncidentKind::Panic);
        assert_eq!(lslp_ir::print_function(&f), before);
        assert!(incidents.is_empty(), "strict reports via Err, not the list");
    }

    #[test]
    fn off_mode_is_unguarded() {
        let mut f = store_kernel();
        let mut incidents = Vec::new();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_guarded(
                &mut f,
                GuardPolicy::new(GuardMode::Off),
                "test",
                None,
                &mut incidents,
                |_| -> ((), bool) { panic!("boom") },
            )
        }));
        assert!(r.is_err(), "off mode must let panics propagate");
    }

    #[test]
    fn instrumentation_hooks_compose() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let mut gi = GuardInstrumentation::new(GuardPolicy::new(GuardMode::Rollback));
        gi.before_pass(&mut f);
        let outcome: Result<(), _> = gi.catch_panics(|| {
            f.add_param("junk", Type::I64);
            panic!("late panic");
        });
        assert!(outcome.is_err());
        let incident = gi
            .after_pass("hooked", None, &mut f, outcome.map(|_| true))
            .expect("panic must produce an incident");
        assert_eq!(incident.kind, IncidentKind::Panic);
        assert_eq!(incident.pass, "hooked");
        assert_eq!(lslp_ir::print_function(&f), before, "after_pass must roll back");
    }

    #[test]
    fn transact_commits_clean_mutations() {
        let mut f = store_kernel();
        let mut gi = GuardInstrumentation::new(GuardPolicy::new(GuardMode::Strict));
        let r = gi.transact("test", None, &mut f, |f| {
            let n = f.num_values();
            f.add_param("extra", Type::I64);
            (n, true)
        });
        assert!(r.is_ok(), "valid mutation must commit even in strict mode");
        assert_eq!(f.params().len(), 4, "mutation survives the transaction");
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [GuardMode::Off, GuardMode::Rollback, GuardMode::Strict] {
            assert_eq!(GuardMode::parse(&mode.to_string()), Some(mode));
        }
        assert_eq!(GuardMode::parse("paranoid"), None);
        assert_eq!(GuardMode::default(), GuardMode::Rollback);
    }

    #[test]
    fn strategy_parsing_round_trips() {
        for s in
            [RollbackStrategy::Delta, RollbackStrategy::Snapshot, RollbackStrategy::Differential]
        {
            assert_eq!(RollbackStrategy::parse(&s.to_string()), Some(s));
        }
        assert_eq!(RollbackStrategy::parse("clone"), None);
        assert_eq!(RollbackStrategy::default(), RollbackStrategy::Delta);
    }

    #[test]
    fn delta_is_the_default_and_opens_a_txn() {
        let mut f = store_kernel();
        let mut gi = GuardInstrumentation::new(GuardPolicy::new(GuardMode::Rollback));
        gi.before_pass(&mut f);
        assert!(f.in_txn(), "delta guard opens an IR transaction");
        let incident = gi.after_pass("t", None, &mut f, Ok(false));
        assert!(incident.is_none());
        assert!(!f.in_txn(), "after_pass closes the transaction");
    }

    #[test]
    fn snapshot_strategy_restores_bit_for_bit() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let e0 = f.epoch();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback).strategy(RollbackStrategy::Snapshot);
        let r = run_guarded(&mut f, policy, "test", None, &mut incidents, |f| {
            f.add_param("junk", Type::I64);
            panic!("boom");
            #[allow(unreachable_code)]
            ((), true)
        });
        assert_eq!(r.unwrap(), None);
        assert_eq!(lslp_ir::print_function(&f), before);
        assert_eq!(f.epoch(), e0, "snapshot restore keeps the pre-txn epoch");
        assert!(!f.in_txn(), "snapshot strategy never opens a transaction");
        assert_eq!(incidents.len(), 1);
    }

    #[test]
    fn delta_strategy_restores_bit_for_bit() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let e0 = f.epoch();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback);
        let r = run_guarded(&mut f, policy, "test", None, &mut incidents, |f| {
            // An invalid mutation that completes: exercises the verify-error
            // path (incremental verification, then delta rollback).
            let a = f.params()[1];
            let bad = f.add_param("b", Type::F64);
            f.push(lslp_ir::Opcode::Add, Type::I64, vec![a, bad], lslp_ir::InstAttr::None);
            ((), true)
        });
        assert_eq!(r.unwrap(), None);
        assert_eq!(lslp_ir::print_function(&f), before, "delta rollback is bit-for-bit");
        assert_eq!(f.epoch(), e0, "delta rollback restores the pre-txn epoch");
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, IncidentKind::VerifyError);
    }

    #[test]
    fn differential_strategy_agrees_on_clean_rollbacks() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback).strategy(RollbackStrategy::Differential);
        for _ in 0..3 {
            let r = run_guarded(&mut f, policy, "test", None, &mut incidents, |f| {
                f.add_param("junk", Type::I64);
                panic!("boom");
                #[allow(unreachable_code)]
                ((), true)
            });
            assert_eq!(r.unwrap(), None);
        }
        assert_eq!(lslp_ir::print_function(&f), before);
        assert_eq!(incidents.len(), 3);
        // A committing transaction under differential also works.
        let r = run_guarded(&mut f, policy, "test", None, &mut incidents, |f| {
            f.add_param("extra", Type::I64);
            ((), true)
        });
        assert_eq!(r.unwrap(), Some(()));
        assert_eq!(f.params().len(), 4);
    }

    #[test]
    fn incident_display_is_readable() {
        let i = Incident {
            pass: "vectorize".into(),
            seed: Some("A[+0..+16)".into()),
            kind: IncidentKind::VerifyError,
            detail: "operand out of range".into(),
        };
        assert_eq!(
            i.to_string(),
            "[verify error] vectorize (seed A[+0..+16)): operand out of range"
        );
    }
}
