//! # hmm-gpu — reproduction of "The Hierarchical Memory Machine Model for GPUs"
//!
//! Facade crate re-exporting the workspace members. See the README for a
//! tour and `DESIGN.md` for the system inventory.

#![warn(missing_docs)]

pub use hmm_algorithms as algorithms;
pub use hmm_core as core;
pub use hmm_lang as lang;
pub use hmm_machine as machine;
pub use hmm_prof as prof;
pub use hmm_theory as theory;
pub use hmm_tune as tune;
pub use hmm_workloads as workloads;
