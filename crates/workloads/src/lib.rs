//! # hmm-workloads — inputs for the reproduction experiments
//!
//! The paper's algorithms are data-oblivious (their running time depends
//! only on `n`, `k`, `p`, `w`, `l`, `d`), so workloads exist to verify
//! *correctness* against sequential references on non-trivial data.
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]

pub mod inputs;

pub use inputs::{impulse, moving_average_taps, ramp, random_words, sine_wave};
