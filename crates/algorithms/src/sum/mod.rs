//! Parallel summing algorithms (paper Sections VI–VII).
//!
//! | Submodule | Result | Machine | Time |
//! |---|---|---|---|
//! | [`dmm_umm`] | Lemma 5 | DMM / UMM | `O(n/w + nl/p + l·log n)` |
//! | [`hmm_single`] | Lemma 6 | HMM, `wl` threads on one DMM | `O(n/w + nl/q + l·log(wl))` |
//! | [`hmm_all`] | Theorem 7 | HMM, all `d` DMMs | `O(n/w + nl/p + l + log n)` |
//!
//! The punchline of the paper is visible in the last column: on a single
//! memory every level of the summing tree pays the latency `l`, while the
//! HMM runs the tree inside the latency-1 shared memories and touches the
//! global pipeline only a constant number of times.

pub mod auto;
pub mod dmm_umm;
pub mod hmm_all;
pub mod hmm_single;

pub use auto::run_sum_hmm_auto;
pub use dmm_umm::run_sum_dmm_umm;
pub use hmm_all::run_sum_hmm;
pub use hmm_single::run_sum_hmm_single_dmm;
