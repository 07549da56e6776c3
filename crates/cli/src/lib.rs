//! # hmm-cli — command-line front end for the HMM simulator
//!
//! ```text
//! hmm-cli <command> [--key value]...
//!
//! commands:
//!   sum        the paper's optimal sum (Lemma 5 / Theorem 7 by machine)
//!   reduce     generalised reduction (--op sum|min|max)
//!   conv       direct convolution (Theorem 8 / Theorem 9)
//!   prefix     prefix sums
//!   sort       bitonic sort
//!   profile    cycle-accounting profile of a kernel (profile sum-hmm)
//!   tune       autotune a kernel's config/layout (tune sum --budget 64)
//!   batch      parallel parameter sweep of a simulation command
//!   lint       static analysis of the named kernels (exit 2 on errors)
//!   info       print machine presets
//!
//! machine flags (sum, reduce, conv, prefix, sort, profile, batch):
//!   --machine dmm|umm|hmm   (default hmm)
//!   --n N --k K --p P --w W --l L --d D
//!   --seed S                workload seed
//!   --op sum|min|max        (reduce only)
//!
//! every command:
//!   --json                  machine-readable output
//!
//! batch flags:
//!   --cmd C --sweep KEY     sweep one flag of a simulation command
//!   --values a,b,c | --from A --to B
//!   --threads N             batch workers (results identical at any N)
//!
//! lint flags:
//!   --kernel NAME           analyse one kernel (see `lint` for names)
//!   --all                   analyse every shipped kernel
//!
//! profile flags:
//!   --buckets B             timeline buckets to aim for (default 64)
//!   --top N                 hotspot rows in the text report (default 10)
//!   --profile-out FILE      write the profile JSON document
//!   --perfetto-out FILE     write a Perfetto trace_events JSON file
//!
//! tune flags:
//!   tune <sum|conv>         algorithm family to tune
//!   --space SPEC            search space (`warps=1,2,4;pad=0,1;swizzle=0,1`)
//!   --n N                   problem size (default: the family's)
//!   --seed S --budget B     measurement budget (baseline not counted);
//!                           live candidates are measured in enumeration
//!                           order and those past the budget are skipped
//!   --threads N             tuning workers (results identical at any N)
//!   --out FILE              write the TuneReport JSON document
//!   --top N                 leaderboard rows in the text report
//! ```
//!
//! The argument grammar is `--key value` pairs after the command; the
//! parser is in [`args`], the command implementations in [`run`], the
//! static-analysis front end in [`lint`]. Each command accepts only the
//! flags it reads (`batch` and `profile` also take those of the
//! algorithm they run); any other flag is an argument error, exit 2.
//! `--threads` exists only on `batch` and `tune`, the commands that run
//! many simulations: a single launch always runs on one thread.

#![warn(missing_docs)]

pub mod args;
pub mod lint;
mod profile;
pub mod run;
mod tune;

pub use args::{Args, ParseError};
pub use run::{execute, Outcome};
