//! # lslp-fuzz
//!
//! Coverage-guided differential and metamorphic testing for the whole
//! LSLP compile stack.
//!
//! The subsystem has four layers:
//!
//! * [`plan`] — a typed, seed-deterministic program description decoded
//!   *totally* from raw bytes (any corpus entry replays exactly) with a
//!   canonical re-encoding and structural shrinking; plans optionally
//!   carry control flow ([`plan::ControlPlan`]: counted loops with
//!   2–8 iterations, branch diamonds, or both), putting if-conversion
//!   and unroll-and-SLP inside the fuzzed perimeter;
//! * [`build`](mod@build) — materializes a plan as one function (straight-line, or
//!   a small CFG for control plans), either by direct IR construction or
//!   by compiling rendered SLC source (so the frontend is fuzzed too);
//! * [`oracle`] — five correctness oracles run on every program and
//!   every target: differential execution, metamorphic commutation,
//!   cross-VF consistency, pipeline idempotence, and packing quality;
//! * [`campaign`] — the feedback loop: cheap coverage signatures
//!   ([`coverage`]) keep interesting inputs, failures shrink to minimal
//!   reproducers in `fuzz/corpus/regressions/`.
//!
//! Entry points: `lslpc --fuzz <iters> --fuzz-seed N` (CLI), the
//! `fuzz_campaign` bench bin (throughput), and the `fuzz_regressions`
//! tier-1 test (replays every stored reproducer).
//!
//! ```
//! use lslp_fuzz::campaign::{run_campaign, CampaignConfig};
//!
//! let report = run_campaign(&CampaignConfig::new(5, 1));
//! assert_eq!(report.failures.len(), 0);
//! assert!(report.signatures > 0);
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod campaign;
pub mod coverage;
pub mod exec;
pub mod oracle;
pub mod plan;
pub mod unstructured;

pub use build::{build, Program};
pub use campaign::{
    check_bytes, fnv64, replay_file, run_campaign, CampaignConfig, CampaignReport, Failure,
};
pub use oracle::{
    base_config, check_program, default_targets, CheckOutcome, OracleKind, Violation,
};
pub use plan::{ControlPlan, GroupPlan, Plan, ReductionPlan, Shape};
pub use unstructured::Unstructured;
