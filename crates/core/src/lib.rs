//! # lslp — Look-ahead SLP auto-vectorization
//!
//! A from-scratch implementation of the bottom-up SLP auto-vectorizer and
//! the **LSLP** extensions of *"Look-ahead SLP: Auto-vectorization in the
//! presence of commutative operations"* (Porpodas, Rocha, Góes — CGO 2018),
//! operating on the straight-line SSA IR of [`lslp_ir`].
//!
//! The pass follows the paper's Figure 1:
//!
//! 1. collect seed groups of adjacent stores ([`seeds`]);
//! 2. build the SLP graph bottom-up along use-def chains ([`graph`]),
//!    reordering commutative operands ([`reorder`]) — LSLP additionally
//!    coarsens chains of same-opcode commutative instructions into
//!    multi-nodes ([`multinode`]) and breaks reordering ties with a
//!    recursive look-ahead score ([`score`]);
//! 3. evaluate profitability against a TTI-style cost model ([`cost`]);
//! 4. emit vector instructions and extracts ([`codegen`]), then sweep dead
//!    scalars ([`dce`]).
//!
//! The paper's four experimental configurations are captured by
//! [`VectorizerConfig`] presets: `O3` (vectorizer off), `SLP-NR` (no operand
//! reordering), `SLP` (vanilla opcode-driven reordering), and `LSLP`
//! (multi-nodes + look-ahead).
//!
//! ## Quickstart
//!
//! ```
//! use lslp::{vectorize_function, VectorizerConfig};
//! use lslp_ir::{Function, FunctionBuilder, Type};
//! use lslp_target::CostModel;
//!
//! // Build `A[i+o] = B[i+o] * B[i+o]` for o in 0..4.
//! let mut f = Function::new("square4");
//! let pa = f.add_param("A", Type::PTR);
//! let pb = f.add_param("B", Type::PTR);
//! let i = f.add_param("i", Type::I64);
//! for o in 0..4 {
//!     let mut b = FunctionBuilder::new(&mut f);
//!     let off = b.func().const_i64(o);
//!     let idx = b.add(i, off);
//!     let gb = b.gep(pb, idx, 8);
//!     let lb = b.load(Type::I64, gb);
//!     let sq = b.mul(lb, lb);
//!     let ga = b.gep(pa, idx, 8);
//!     b.store(sq, ga);
//! }
//!
//! let report = vectorize_function(&mut f, &VectorizerConfig::lslp(), &CostModel::default());
//! assert_eq!(report.trees_vectorized, 1);
//! assert!(lslp_ir::print_function(&f).contains("<4 x i64>"));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod codegen;
pub mod config;
pub mod cost;
pub mod cse;
pub mod dce;
pub mod fold;
pub mod graph;
pub mod guard;
pub mod ifconv;
pub mod multinode;
pub mod packing;
pub mod pass;
pub mod pipeline;
pub mod pm;
pub mod reduce;
pub mod reorder;
pub mod score;
pub mod seeds;
pub mod simplify;
pub mod stats;
pub mod throttle;
pub mod unroll;

pub use api::{
    Artifact, CompileOptions, CompileOptionsBuilder, ErrorClass, LslpError, OptionsError, Session,
};
pub use codegen::CodegenStats;
pub use config::{
    PackingStrategy, ParseStrategyError, ReorderStrategy, Sabotage, ScoreAgg, ScoreWeights,
    VectorizerConfig,
};
pub use cost::{graph_cost, graph_cost_excluding, graph_cost_reachable, CostReport};
pub use graph::{GatherReason, GraphBuilder, Node, NodeId, NodeKind, Placement, SlpGraph};
pub use guard::{GuardError, GuardMode, GuardPolicy, Incident, IncidentKind};
pub use lslp_analysis::{AnalysisKind, AnalysisManager, CacheStats};
pub use packing::{function_cost, GlobalStrategy, GreedyStrategy, PackCx, Strategy};
pub use pass::{try_vectorize_function, vectorize_function, Attempt, VectorizeReport};
pub use pipeline::{run_pipeline, try_run_pipeline, PipelineReport};
pub use pm::{
    CsePass, DcePass, FoldPass, IfConvertPass, Pass, PassContext, PassManager, PassTiming,
    SimplifyPass, UnrollLoopsPass, VectorizePass,
};
pub use stats::{StatRow, Statistics};
pub use unroll::UNROLL_BUDGET;
