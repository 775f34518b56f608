//! # lslp-analysis
//!
//! The program analyses the SLP/LSLP vectorizer depends on:
//!
//! * [`addr`] — symbolic address analysis ("SCEV-lite"): expresses every
//!   load/store address as `base + Σ coeff·var + const` so the vectorizer can
//!   test whether two accesses are *consecutive* (the test the paper performs
//!   with LLVM's scalar-evolution analysis).
//! * [`alias`] — a simple alias analysis over the same address expressions
//!   (distinct pointer parameters are assumed not to alias, matching the
//!   `restrict`-style semantics of the evaluation kernels).
//! * [`sched`] — bundle scheduling legality: whether a group of isomorphic
//!   instructions can be fused into one vector instruction placed at the
//!   position of the group's last member without violating SSA or memory
//!   dependences (footnote 1 of the paper: bundles must be *schedulable*).
//! * [`memdep`] — per-load memory-dependence epochs over the same address
//!   expressions (which store each load reads past), the summary local CSE
//!   keys on.
//! * [`manager`] — the [`AnalysisManager`]: lazy, epoch-keyed caching of
//!   all of the above, LLVM-new-PM style, so passes share analyses instead
//!   of recomputing them. Consumers outside this crate should obtain
//!   analyses through the manager, never by calling `analyze` directly on
//!   the hot path.

#![warn(missing_docs)]

pub mod addr;
pub mod alias;
pub mod manager;
pub mod memdep;
pub mod sched;
#[cfg(test)]
mod test_rng;

pub use addr::{AddrExpr, AddrInfo, LinExpr, MemLoc};
pub use alias::may_alias;
pub use manager::{
    AnalysisKind, AnalysisManager, CacheStats, PositionMap, PreservedAnalyses, ANALYSIS_KINDS,
};
pub use memdep::MemDep;
pub use sched::{bundle_hoistable, bundle_schedulable, load_placement, Placement};
