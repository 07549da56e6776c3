//! # hmm-core — the Hierarchical Memory Machine as a library
//!
//! This crate is the public face of the reproduction of Koji Nakano,
//! *"The Hierarchical Memory Machine Model for GPUs"* (IPDPS Workshops
//! 2013). It packages the simulation substrate of [`hmm_machine`] into the
//! three machines the paper defines:
//!
//! * [`Machine::dmm`] — the **Discrete Memory Machine** of width `w` and
//!   latency `l`: a sea of threads in warps of `w`, over `w` memory banks;
//!   distinct addresses in one bank serialise (bank conflicts).
//! * [`Machine::umm`] — the **Unified Memory Machine**: same shape, but
//!   the memory serves one *address group* of `w` consecutive addresses
//!   per time unit (coalescing).
//! * [`Machine::hmm`] — the **Hierarchical Memory Machine**: `d` DMMs with
//!   latency-1 shared memories plus a single latency-`l` UMM-style global
//!   memory behind one shared pipeline, the architecture of the paper's
//!   Figure 2 and of real CUDA GPUs.
//!
//! ```
//! use hmm_core::{Machine, Kernel, LaunchShape};
//! use hmm_machine::{Asm, abi};
//!
//! // A kernel: every thread writes its global id to G[gid].
//! let mut a = Asm::new();
//! a.st_global(abi::GID, 0, abi::GID);
//! a.halt();
//! let kernel = Kernel::new("store-gid", a.finish());
//!
//! let mut m = Machine::hmm(2, 4, 10, 64, 32); // d=2, w=4, l=10
//! let report = m.launch(&kernel, LaunchShape::Even(8)).unwrap();
//! assert_eq!(m.global()[..8], [0, 1, 2, 3, 4, 5, 6, 7]);
//! assert!(report.time > 0);
//! ```
//!
//! Performance of a kernel is reported in the paper's *time units* — see
//! [`hmm_machine::SimReport`]. The companion crates build on this API:
//! `hmm-algorithms` implements every algorithm in the paper, `hmm-theory`
//! provides the matching closed-form bounds, and `hmm-bench` regenerates
//! the paper's Tables I and II.

#![warn(missing_docs)]

pub mod batch;
pub mod machine;
pub mod presets;

pub use batch::{BatchRunner, Keyed};
pub use hmm_machine::{abi, Asm, Program, SimError, SimReport, SimResult, Word};
#[doc(hidden)]
pub use machine::Parallelism;
pub use machine::{Kernel, LaunchShape, Machine, ModelKind};
pub use presets::MachineParams;
