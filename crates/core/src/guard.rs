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
//! The rollback point is an IR transaction ([`Function::begin_txn`]):
//! rollback replays the delta log in reverse, so a committed attempt costs
//! ~nothing and a rollback costs O(touched instructions) instead of
//! O(function). Commits verify incrementally
//! ([`lslp_ir::verify_function_touched`]) against the positions and uses
//! of the caller's [`AnalysisManager`], which catches them up from the
//! same log, when it already holds them; otherwise they run the full
//! verifier rather than build maps only to check one commit.
//!
//! See `DESIGN.md` § "Pass guard & failure semantics" and `docs/IR.md`
//! § "Transactions" for the underlying delta-log contract.

use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use lslp_analysis::AnalysisManager;
use lslp_interp::{run_function, Memory, Value};
use lslp_ir::{Function, ScalarType, TxnMark, Type};

/// Failure semantics of the transactional pass guard.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GuardMode {
    /// No guard: transforms run unchecked, panics propagate, verification
    /// happens only in debug builds (the historical behavior).
    Off,
    /// Roll the transaction back on any incident, record it, and continue
    /// with the scalar code.
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

/// The complete guard configuration: failure semantics and whether the
/// differential-execution oracle runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GuardPolicy {
    /// What happens after an incident (rollback / abort / nothing).
    pub mode: GuardMode,
    /// Whether to run the differential-execution oracle on every commit.
    /// Paranoid mode keeps a clone of the pre-transform function for the
    /// oracle's "before" side.
    pub paranoid: bool,
}

impl GuardPolicy {
    /// A policy with the given failure semantics, oracle off.
    pub fn new(mode: GuardMode) -> GuardPolicy {
        GuardPolicy { mode, ..GuardPolicy::default() }
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

/// Run `body` over `f` as one guarded transaction: open an IR
/// transaction, run `body` with panics caught, verify the result, and
/// commit or roll back. This is the one guard entry point — the pass
/// manager wraps whole passes with it and the vectorizer each per-seed
/// attempt.
///
/// `body` returns `(result, mutated)`; `mutated` tells the guard whether
/// `f` was actually changed, so clean read-only attempts skip the
/// verification and oracle costs. `body` may use `am`. When `am` holds
/// positions and uses, the commit check catches them up from the delta
/// log and verifies only the touched instructions, so a commit costs
/// O(touched instructions) and the caller's next queries hit; otherwise
/// it verifies the whole function and builds no maps. `seed` is rendered
/// only when an incident is built (after rollback, so it describes the
/// pre-transform state).
///
/// On commit the result is returned as `Ok(Some(result))`. On an incident
/// (panic, verifier error, or — in paranoid mode — oracle mismatch):
///
/// * [`GuardMode::Rollback`] rolls `f` back bit-for-bit, pushes the
///   incident onto `incidents`, and returns `Ok(None)`;
/// * [`GuardMode::Strict`] rolls `f` back and returns `Err(GuardError)`;
/// * [`GuardMode::Off`] never produces incidents — `body` runs unguarded
///   and panics propagate.
///
/// # Errors
///
/// Returns [`GuardError`] carrying the incident in strict mode.
pub fn run_guarded<T>(
    f: &mut Function,
    am: &mut AnalysisManager,
    policy: GuardPolicy,
    pass: &str,
    seed: Option<SeedDesc>,
    incidents: &mut Vec<Incident>,
    body: impl FnOnce(&mut Function, &mut AnalysisManager) -> (T, bool),
) -> Result<Option<T>, GuardError> {
    if policy.mode == GuardMode::Off {
        return Ok(Some(body(f, am).0));
    }
    install_quiet_hook();
    let mark = f.begin_txn();
    // Put the manager's log cursor at the transaction's start, so the
    // commit check catches the body's edits up instead of recomputing.
    am.refresh(f);
    let before = policy.paranoid.then(|| f.clone());
    GUARD_ACTIVE.with(|g| g.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(f, am)));
    GUARD_ACTIVE.with(|g| g.set(false));
    let (value, failure) = match outcome {
        Err(payload) => (None, Some((IncidentKind::Panic, panic_message(payload)))),
        Ok((value, mutated)) => {
            let failure =
                if mutated { check_commit(f, am, mark, before.as_ref()).err() } else { None };
            (Some(value), failure)
        }
    };
    match failure {
        None => {
            // Catch the manager up while the log still holds the edits.
            am.refresh(f);
            f.commit_txn(mark);
            Ok(value)
        }
        Some((kind, detail)) => {
            f.rollback_txn(mark);
            let incident =
                Incident { pass: pass.to_string(), seed: seed.map(|d| d(f)), kind, detail };
            record(policy.mode, incidents, incident)?;
            Ok(None)
        }
    }
}

/// Check a mutated function before its transaction commits: verify the
/// instructions the transaction touched, then, in paranoid mode, run the
/// differential oracle against `before`.
///
/// The touched verifier needs the current positions and uses, so it runs
/// only when `am` already holds both (caught up from the delta log, as
/// inside the vectorizer). Otherwise — after a whole-body or CFG edit, or
/// a scalar pass that never asked for the maps — the full verifier runs:
/// one O(body) sweep with no maps built only to be thrown away. The two
/// accept exactly the same functions.
fn check_commit(
    f: &Function,
    am: &mut AnalysisManager,
    mark: TxnMark,
    before: Option<&Function>,
) -> Result<(), (IncidentKind, String)> {
    let verdict = match am.cached_maps(f) {
        Some((positions, uses)) => match f.touched_since(mark) {
            Some(touched) if touched.is_empty() => Ok(()),
            Some(touched) => lslp_ir::verify_function_touched(f, &touched, &positions, &uses),
            None => lslp_ir::verify_function(f),
        },
        None => lslp_ir::verify_function(f),
    };
    verdict.map_err(|e| (IncidentKind::VerifyError, e.to_string()))?;
    match before {
        Some(before) => oracle_check(before, f).map_err(|d| (IncidentKind::OracleMismatch, d)),
        None => Ok(()),
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
/// oracle inconclusive, which counts as agreement.
fn oracle_check(before: &Function, after: &Function) -> Result<(), String> {
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

    /// [`run_guarded`] with a fresh manager and a body that ignores it.
    fn guarded<T>(
        f: &mut Function,
        policy: GuardPolicy,
        seed: Option<SeedDesc>,
        incidents: &mut Vec<Incident>,
        body: impl FnOnce(&mut Function) -> (T, bool),
    ) -> Result<Option<T>, GuardError> {
        run_guarded(f, &mut AnalysisManager::new(), policy, "test", seed, incidents, |f, _| body(f))
    }

    #[test]
    fn commit_passes_result_through() {
        let mut f = store_kernel();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback);
        let r = guarded(&mut f, policy, None, &mut incidents, |_| (42, false));
        assert_eq!(r.unwrap(), Some(42));
        assert!(incidents.is_empty());
    }

    #[test]
    fn panic_rolls_back_and_records() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let mut incidents = Vec::new();
        let desc = |_: &Function| "A[+0..+8)".to_string();
        let r = guarded(
            &mut f,
            GuardPolicy::new(GuardMode::Rollback),
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
        let r = guarded(
            &mut f,
            GuardPolicy::new(GuardMode::Strict),
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
            guarded(
                &mut f,
                GuardPolicy::new(GuardMode::Off),
                None,
                &mut incidents,
                |_| -> ((), bool) { panic!("boom") },
            )
        }));
        assert!(r.is_err(), "off mode must let panics propagate");
    }

    #[test]
    fn transact_commits_clean_mutations() {
        let mut f = store_kernel();
        let mut incidents = Vec::new();
        let r = guarded(&mut f, GuardPolicy::new(GuardMode::Strict), None, &mut incidents, |f| {
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
    fn delta_is_the_default_and_opens_a_txn() {
        let mut f = store_kernel();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback);
        let r = guarded(&mut f, policy, None, &mut incidents, |f| (f.in_txn(), false));
        assert_eq!(r.unwrap(), Some(true), "the body runs inside an IR transaction");
        assert!(!f.in_txn(), "the guard closes the transaction");
    }

    #[test]
    fn delta_strategy_restores_bit_for_bit() {
        let mut f = store_kernel();
        let before = lslp_ir::print_function(&f);
        let e0 = f.epoch();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback);
        let r = guarded(&mut f, policy, None, &mut incidents, |f| {
            // An invalid mutation that completes: exercises the verify-error
            // path (incremental verification, then delta rollback).
            let a = f.params()[1];
            let bad = f.add_param("b", Type::F64);
            f.push(lslp_ir::Opcode::Add, Type::I64, [a, bad], lslp_ir::InstAttr::None);
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
        // Delta rollback checked against a clone taken before each
        // transaction: printed form and epoch must both match.
        let mut f = store_kernel();
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Rollback);
        for _ in 0..3 {
            let snapshot = f.clone();
            let r = guarded(&mut f, policy, None, &mut incidents, |f| {
                f.add_param("junk", Type::I64);
                panic!("boom");
                #[allow(unreachable_code)]
                ((), true)
            });
            assert_eq!(r.unwrap(), None);
            assert_eq!(lslp_ir::print_function(&f), lslp_ir::print_function(&snapshot));
            assert_eq!(f.epoch(), snapshot.epoch());
        }
        assert_eq!(incidents.len(), 3);
        // A committing transaction after the rollbacks also works.
        let r = guarded(&mut f, policy, None, &mut incidents, |f| {
            f.add_param("extra", Type::I64);
            ((), true)
        });
        assert_eq!(r.unwrap(), Some(()));
        assert_eq!(f.params().len(), 4);
    }

    #[test]
    fn commit_check_catches_the_callers_analyses_up() {
        // Enough body that one insertion is worth catching up.
        let mut f = store_kernel();
        for _ in 0..3 {
            let (pa, x, i) = (f.params()[0], f.params()[1], f.params()[2]);
            let mut b = FunctionBuilder::new(&mut f);
            let g = b.gep(pa, i, 8);
            b.store(x, g);
        }
        let mut am = AnalysisManager::new();
        let _ = (am.positions(&f), am.use_map(&f));
        let misses = am.cache_stats().misses;
        let mut incidents = Vec::new();
        let policy = GuardPolicy::new(GuardMode::Strict);
        let added = run_guarded(&mut f, &mut am, policy, "test", None, &mut incidents, |f, _| {
            let x = f.params()[1];
            (f.push(lslp_ir::Opcode::Add, Type::I64, [x, x], lslp_ir::InstAttr::None), true)
        })
        .unwrap()
        .expect("a valid push commits");
        let stats = am.cache_stats();
        assert_eq!(stats.misses, misses, "the commit check recomputed nothing");
        assert_eq!(stats.updates, 2, "positions and uses were caught up");
        assert!(am.positions(&f).contains(added));
        assert_eq!(am.use_map(&f).num_uses(f.params()[1]), 6, "four stores and the add");
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
