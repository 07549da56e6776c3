//! # hmm-util — dependency-free workspace support
//!
//! The simulation workspace is built offline, so everything the crates
//! would normally pull from crates.io lives here instead:
//!
//! - [`json`]: a small JSON document model, the workspace's one
//!   streaming writer (compact and pretty) and a strict parser, used by
//!   the CLI's `--json` output, the profiler's exports and the
//!   experiment dumps.
//! - [`rng`]: a seeded `SplitMix64` generator for deterministic workload
//!   inputs and randomised tests.
//! - [`bench`](mod@bench): a minimal wall-clock timing harness for the `hmm-bench`
//!   bench targets.
//! - [`par`]: a deterministic order-preserving parallel map over scoped
//!   threads, the substrate of the workspace's batch runners.

#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod par;
pub mod rng;

pub use json::{JsonError, Value};
pub use par::parallel_map;
pub use rng::Rng;
