//! # lslp-ir
//!
//! A typed, SSA-based intermediate representation used by the LSLP
//! auto-vectorizer reproduction (Porpodas, Rocha, Góes — CGO 2018).
//!
//! The IR deliberately models the slice of LLVM IR that the SLP/LSLP
//! algorithms inspect: scalar and vector integer/float arithmetic, memory
//! access through `gep`/`load`/`store`, and the vector shuffle/insert/extract
//! instructions emitted by vector code generation. Functions are
//! *straight-line* by default — a single basic block of instructions in
//! execution order, which is exactly the granularity at which bottom-up SLP
//! operates (each vectorization group must live in one block). A function
//! may instead carry a small [`Cfg`]: basic blocks with block parameters
//! (the phi-equivalents), branches, and structured counted-loop regions
//! (see `docs/CONTROL_FLOW.md`); the pipeline's if-conversion and
//! unroll-and-SLP passes flatten such CFGs back into straight-line bodies
//! before the vectorizer runs.
//!
//! ## Quick tour
//!
//! ```
//! use lslp_ir::{Function, FunctionBuilder, ScalarType, Type};
//!
//! # fn main() {
//! let mut f = Function::new("axpy2");
//! let a = f.add_param("A", Type::Scalar(ScalarType::Ptr));
//! let i = f.add_param("i", Type::Scalar(ScalarType::I64));
//! let mut b = FunctionBuilder::new(&mut f);
//! let p0 = b.gep(a, i, 8);
//! let v0 = b.load(Type::Scalar(ScalarType::F64), p0);
//! let two = b.func().const_float(ScalarType::F64, 2.0);
//! let d0 = b.fmul(v0, two);
//! b.store(d0, p0);
//! assert!(lslp_ir::verify_function(&f).is_ok());
//! println!("{}", lslp_ir::print_function(&f));
//! # }
//! ```
//!
//! The textual form produced by [`print_function`] round-trips through
//! [`parse_module`], which the test-suite uses extensively.

#![warn(missing_docs)]

mod builder;
mod cfg;
mod function;
pub mod hash;
mod inst;
mod maps;
mod parser;
mod printer;
mod types;
mod value;
mod verifier;

pub use builder::FunctionBuilder;
pub use cfg::{Block, BlockId, Cfg, Terminator};
pub use function::{Edit, Function, LogCursor, Module, TxnMark, ValueData};
pub use inst::{FloatPred, Inst, InstAttr, IntPred, Opcode};
pub use maps::{PositionMap, Use, UseMap};
pub use parser::{parse_function, parse_module, ParseError};
pub use printer::{print_function, print_module};
pub use types::{ScalarType, Type};
pub use value::{ConstId, Constant, ValueId};
pub use verifier::{verify_function, verify_function_touched, verify_module, VerifyError};
