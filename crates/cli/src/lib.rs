//! # lslp-cli
//!
//! `lslpc`: the command-line driver for the LSLP auto-vectorizer. Compiles
//! SLC kernel files, runs the configured vectorizer (or the full
//! `-O3`-style pipeline), and emits optimized IR, SLP-graph dumps, or
//! vectorization reports; `--run` additionally executes the kernels on the
//! interpreter and prints simulated cycle counts and memory checksums.
//!
//! ```text
//! lslpc kernel.slc --config LSLP --emit report
//! lslpc kernel.slc --compare SLP --run --iters 64
//! ```

#![warn(missing_docs)]

pub mod args;
pub mod driver;
pub mod fuzz;

pub use args::{parse, Args, Emit};
pub use driver::run_on_source;
pub use fuzz::run_fuzz;
