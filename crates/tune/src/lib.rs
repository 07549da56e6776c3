//! # hmm-tune — a deterministic kernel/config autotuner
//!
//! Given an algorithm family (`sum`, `conv`) and a declared
//! configuration space — machine shape `d`/`w`/`l`, launch width, and
//! kernel-layout transforms (bank-offset padding, xor swizzle, shared
//! transpose, loop unrolling, all semantics-preserving `hmm-lang`
//! transforms applied as the kernel is compiled) — find the
//! configuration with the smallest simulated time, reproducibly:
//!
//! 1. the `hmm-analysis` conflict/coalescing predictor scores every
//!    candidate statically and prunes the dominated ones;
//! 2. the first `budget` survivors in enumeration order are simulated
//!    exactly, in parallel, with results validated against the
//!    sequential references;
//! 3. the winner is explained by diffing its cycle-accounting profile
//!    against the baseline's.
//!
//! Reports are bit-identical across runs and worker thread counts: the
//! input data comes from the run seed, the measured set depends only on
//! the space and the budget, results come back order-stable, and no
//! wall-clock values are recorded. See `DESIGN.md` ("The autotuner")
//! for the architecture and how the paper's Θ-terms bound the space
//! worth declaring.
//!
//! ```
//! use hmm_tune::{tune, TuneConfig, TuneSpace};
//!
//! let mut cfg = TuneConfig::new("sum");
//! cfg.n = 256;
//! cfg.budget = 8;
//! cfg.space = TuneSpace::parse("pad=0,1;warps=1,2").unwrap();
//! let report = tune(&cfg).unwrap();
//! assert!(report.winner_time <= report.baseline_time);
//! println!("{}", report.render_text(10));
//! ```

#![warn(missing_docs)]

pub mod kernels;
pub mod report;
pub mod space;
pub mod tuner;

pub use kernels::{tunable, tunable_names, BuildError, Tunable, TunedKernel};
pub use report::{EntryStatus, ExplainRow, TuneEntry, TuneReport};
pub use space::{Candidate, SpaceError, TuneSpace, MAX_CANDIDATES};
pub use tuner::{tune, TuneConfig, TuneError};
