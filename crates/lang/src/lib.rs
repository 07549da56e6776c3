//! # hmm-lang — a structured kernel language for the memory machines
//!
//! The algorithms of the paper are written directly in the
//! [`hmm_machine`] ISA, which is faithful but low-level. This crate adds
//! a small structured language — expressions, `let`/`assign`,
//! `if`/`while`/`for`, memory loads and stores, barriers — compiled to
//! that ISA, so new kernels read like the paper's pseudo-code:
//!
//! ```
//! use hmm_lang::prelude::*;
//! use hmm_machine::{Kernel, LaunchShape, Machine};
//!
//! // for i = gid; i < 24; i += p { G[i] = i * i }
//! let mut k = KernelBuilder::new();
//! let i = k.var();
//! k.set(i, gid());
//! k.while_(lt(v(i), imm(24)), |k| {
//!     k.store(Space::Global, v(i), mul(v(i), v(i)));
//!     k.set(i, add(v(i), p()));
//! });
//! let program = k.compile().unwrap();
//!
//! let mut m = Machine::umm(4, 2, 32);
//! m.launch(&Kernel::new("squares", program), LaunchShape::Even(8)).unwrap();
//! assert_eq!(m.global()[5], 25);
//! ```
//!
//! The compiler performs simple one-register-per-variable allocation plus
//! a temporary stack for expression evaluation; it reports an error
//! rather than spilling when a kernel exceeds the thread's 64 registers.

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod transform;

pub use ast::{Expr, Special, Stmt, Var};
pub use compile::{CompileError, KernelBuilder};
pub use transform::{required_shared_all, Transform, TransformError};

/// Everything needed to write kernels, in one import.
pub mod prelude {
    pub use crate::ast::helpers::*;
    pub use crate::ast::{Expr, Stmt, Var};
    pub use crate::compile::KernelBuilder;
    pub use hmm_machine::isa::{Scope, Space};
}
