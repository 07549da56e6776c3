//! The three workloads. Each owns its seeded inputs, their reference
//! outputs and the golden simulated counts that every op must reproduce.
//!
//! An op builds a fresh machine and runs one algorithm through the
//! libraries' public functions with their defaults (fast-forward on,
//! `TuneConfig::new`), as one `hmm-cli` call does, except that every op
//! runs on one thread: launches use [`PARALLELISM`] and the tuner
//! [`TUNE_THREADS`]. Its traced twin makes the same calls one by one
//! inside spans.

mod sort;
mod sum;
mod tune;

use std::collections::BTreeMap;

use hmm_core::Parallelism;
use hmm_machine::{LaunchProfile, SimReport};

use crate::spans::Tracer;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// `Err` says why an op failed.
pub type OpResult = Result<(), String>;

/// In-launch parallelism of every machine an op builds. The default,
/// `Parallelism::Auto`, hands each time unit across one worker per core;
/// on a host of two shared cores that hand-off times the scheduler and
/// the other tenants, not the simulator.
pub const PARALLELISM: Parallelism = Parallelism::Sequential;

/// `BatchRunner` threads of the tuner, for the same reason.
pub const TUNE_THREADS: usize = 1;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["sum_latency", "tune_sum", "sort_profiled"];

/// Benchmarked shapes, or tiny ones for the self-test. The benchmarked
/// shapes keep each op under about 100 ms on one core, with a working set
/// of a few MiB, so that a run holds hundreds of ops and its fastest op
/// falls in a quiet spell of a host shared with other tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub trait Workload {
    /// One untraced op, checked.
    fn op(&mut self) -> OpResult;
    /// The same op split into spans around each layer call, checked the
    /// same way; its reports must be bit-identical to the untraced op's.
    fn op_traced(&mut self, tr: &mut Tracer) -> OpResult;
    /// Simulated (thread-instructions, time units) of one op.
    fn sim_work(&self) -> (u64, u64);
    /// Effective (in-launch, `BatchRunner`) worker counts; 0 for a
    /// runner the op does not use.
    fn workers(&self) -> (usize, usize);
    /// The golden report of the op's launch, for launch workloads.
    fn report(&self) -> Option<&SimReport> {
        None
    }
    /// The cycle-accounting profile of the op's launch, for launch
    /// workloads (an extra untimed profiled launch where the op itself
    /// runs unprofiled).
    fn profile(&mut self) -> Option<LaunchProfile> {
        None
    }
    /// Workload-specific per-layer metrics, after the traced ops.
    fn layer_metrics(&mut self, out: &mut Metrics);
    /// Make the reference outputs wrong, so that every later op fails.
    #[cfg(test)]
    fn corrupt_reference(&mut self);
}

/// Attempted and failed ops, with the first failure's reason.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn record(&mut self, r: OpResult) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Build workload `name` for `seed`. Set-up runs one warm-up op, whose
/// report becomes the golden counts, and one op on inputs from a second
/// seed: every kernel is data-oblivious, so its counts must be the same.
/// Both count as attempted ops. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, scale: Scale, tally: &mut Tally) -> Option<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "sum_latency" => Box::new(sum::Sum::new(scale, seed, tally)),
        "tune_sum" => Box::new(tune::Tune::new(scale, seed, tally)),
        "sort_profiled" => Box::new(sort::Sort::new(scale, seed, tally)),
        _ => return None,
    };
    Some(w)
}

/// The seed of the data-obliviousness check.
fn second_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Every simulated count of `r` must equal the golden report's.
fn same_counts(r: &SimReport, golden: &SimReport) -> OpResult {
    if r == golden {
        Ok(())
    } else {
        Err(format!(
            "simulated counts differ from the golden run: time {} vs {}, instructions {} vs {}",
            r.time, golden.time, r.instructions, golden.instructions
        ))
    }
}

/// Measured time must not fall below the paper's Table II lower bound.
fn above_bound(r: &SimReport, bound: f64) -> OpResult {
    if r.time as f64 >= bound {
        Ok(())
    } else {
        Err(format!(
            "time {} is below the Table II bound {bound}",
            r.time
        ))
    }
}
