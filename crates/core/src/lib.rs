//! # hmm-core — machine presets and batch runs
//!
//! This crate is the public face of the reproduction of Koji Nakano,
//! *"The Hierarchical Memory Machine Model for GPUs"* (IPDPS Workshops
//! 2013). The machine itself — [`Machine::dmm`], [`Machine::umm`] and
//! [`Machine::hmm`], launched with a [`Kernel`] — lives in
//! [`hmm_machine`] and is re-exported here. This crate adds the machine
//! parameterisations of the paper ([`presets`]) and the [`BatchRunner`]
//! that fans independent simulations out over worker threads.
//!
//! ```
//! use hmm_core::{presets, Kernel, LaunchShape};
//! use hmm_machine::{abi, Asm};
//!
//! // A kernel: every thread writes its global id to G[gid].
//! let mut a = Asm::new();
//! a.st_global(abi::GID, 0, abi::GID);
//! a.halt();
//! let kernel = Kernel::new("store-gid", a.finish());
//!
//! let mut m = presets::tiny().hmm(); // d=2, w=4, l=8
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
pub mod presets;

pub use batch::{BatchRunner, Keyed};
#[doc(hidden)]
pub use hmm_machine::Parallelism;
pub use hmm_machine::{
    abi, Asm, Kernel, LaunchShape, Machine, Program, SimError, SimReport, SimResult, Word,
};
pub use presets::MachineParams;
