//! # hmm-machine — simulation substrate for the memory machine models
//!
//! This crate implements, at cycle granularity, the machinery underlying
//! Nakano's *Discrete Memory Machine* (DMM), *Unified Memory Machine* (UMM)
//! and *Hierarchical Memory Machine* (HMM) parallel computing models
//! (IPDPS Workshops 2013).
//!
//! The substrate has four layers, bottom-up:
//!
//! 1. [`bank`] — the interleaved mapping of a flat address space onto `w`
//!    memory banks (`bank(a) = a mod w`) and `w`-wide address groups
//!    (`group(a) = a div w`).
//! 2. [`request`] — per-warp memory transactions and the conflict analysis
//!    that decides how many pipeline *slots* a transaction occupies: on a
//!    DMM the maximum number of distinct addresses destined for one bank,
//!    on a UMM the number of distinct address groups touched.
//! 3. [`isa`] / [`asm`] / `vm` — each thread of the model is a Random
//!    Access Machine. We give it a small concrete instruction set, a
//!    label-based assembler, and execution semantics that step a group of
//!    lanes at one program counter through one instruction at a time.
//! 4. [`machine`] — the machine proper: its memories and the kernel
//!    launch, simulated by an engine of SIMD warps of `w` threads,
//!    round-robin warp dispatch, an `l`-stage pipelined memory management
//!    unit per memory, barrier synchronisation, and the global time-unit
//!    clock whose final value is the quantity the paper's theorems bound.
//!
//! [`Machine`] is the one machine type: [`Machine::dmm`], [`Machine::umm`]
//! and [`Machine::hmm`] build the paper's three models, and
//! [`Machine::launch`] runs a [`Kernel`] on them.
//!
//! ```
//! use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine};
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
//! The same engine simulates all three models because — exactly as the
//! paper observes in its Figure 1 — the DMM and the UMM differ *only* in
//! how a warp's requests serialise (per-bank vs per-address-group), and
//! the HMM is `d` DMMs (latency-1 shared memories) plus one UMM
//! (latency-`l` global memory) sharing a single global pipeline.

#![warn(missing_docs)]

pub mod asm;
pub mod bank;
pub mod disasm;
pub mod error;
mod exec;
pub mod isa;
pub mod kbuild;
pub mod machine;
pub mod profile;
pub mod request;
pub mod stats;
pub mod trace;
mod vm;
pub mod word;

pub use asm::{Asm, Label};
pub use bank::{bank_of, group_of};
pub use disasm::disassemble;
pub use error::{SimError, SimResult};
pub use isa::{Inst, Operand, Program, ProgramError, Reg, Scope, Space, REG_COUNT};
#[doc(hidden)]
pub use machine::Parallelism;
pub use machine::{DynamicRace, EngineConfig, Kernel, LaunchShape, Machine};
pub use profile::{CategoryCounts, LaunchProfile, PipelineProfile, StallCategory};
pub use request::{AccessKind, ConflictPolicy, Request, SlotSchedule};
pub use stats::SimReport;
pub use trace::{Trace, TraceEvent};
pub use word::Word;

/// Architectural registers preset by the engine before a kernel starts.
///
/// These mirror the identifiers used throughout the paper: `T(i)` threads,
/// `DMM(j)` machines, width `w`, latency `l`, and the per-launch argument
/// words an algorithm builder wants to pass in.
pub mod abi {
    use crate::isa::Reg;

    /// Global thread id `i` in `0..p` (unique across all DMMs).
    pub const GID: Reg = Reg(0);
    /// Index of the DMM this thread runs on, `0..d`.
    pub const DMM: Reg = Reg(1);
    /// Local thread id within the thread's DMM.
    pub const LTID: Reg = Reg(2);
    /// Total number of threads `p`.
    pub const P: Reg = Reg(3);
    /// Number of threads on this thread's DMM.
    pub const PD: Reg = Reg(4);
    /// Width `w` (number of banks / size of an address group / warp size).
    pub const W: Reg = Reg(5);
    /// Number of DMMs `d`.
    pub const D: Reg = Reg(6);
    /// Global-memory latency `l`.
    pub const L: Reg = Reg(7);
    /// First of [`NUM_ARGS`] user argument registers.
    pub const ARG0: Reg = Reg(8);
    /// Number of user argument registers starting at [`ARG0`].
    pub const NUM_ARGS: usize = 8;
    /// First register that kernels may freely use as scratch.
    pub const SCRATCH0: Reg = Reg(16);

    /// Convenience: the `i`-th user argument register.
    #[must_use]
    pub fn arg(i: usize) -> Reg {
        assert!(i < NUM_ARGS, "argument register index {i} out of range");
        Reg(ARG0.0 + i as u8)
    }

    /// Convenience: the `i`-th scratch register.
    #[must_use]
    pub fn scratch(i: usize) -> Reg {
        let r = SCRATCH0.0 as usize + i;
        assert!(
            r < crate::REG_COUNT,
            "scratch register index {i} out of range"
        );
        Reg(r as u8)
    }
}
