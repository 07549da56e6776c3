//! Fan independent kernel configurations out over worker threads.
//!
//! Parameter sweeps, the Table I/II reproductions and the CLI's `batch`
//! command all run many **independent** simulations — different machine
//! shapes, different inputs, the same kernel at many sizes. Each job
//! builds its own [`crate::Machine`], so jobs share no state and the
//! fan-out is embarrassingly parallel; results return in job order, so
//! every derived artefact is identical at any thread count.
//!
//! This is the only place the workspace runs simulations in parallel:
//! a single launch always runs on the thread that calls it, and a batch
//! runs one launch per worker.

use std::sync::OnceLock;

use hmm_util::parallel_map;

/// The default batch pool size: `HMM_THREADS` if set to a positive
/// integer, else the machine's available parallelism. Read once per
/// process.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("HMM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
    })
}

/// A batch result that still carries the configuration that produced it.
///
/// Index-keyed result vectors are easy to misalign once a caller filters
/// or reorders its job list (the tuner prunes candidates, the sweep
/// binaries skip infeasible points); pairing each result with its
/// originating config makes wrong attribution unrepresentable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keyed<T, R> {
    /// The job configuration handed to the worker.
    pub config: T,
    /// What the worker produced for it.
    pub result: R,
}

/// Runs a batch of independent jobs on up to `threads` worker threads,
/// preserving job order in the results.
///
/// ```
/// use hmm_core::{BatchRunner, Machine, Kernel, LaunchShape};
/// use hmm_machine::{abi, Asm};
///
/// let mut a = Asm::new();
/// a.st_global(abi::GID, 0, abi::GID);
/// a.halt();
/// let kernel = Kernel::new("store-gid", a.finish());
///
/// let times: Vec<u64> = BatchRunner::new()
///     .run(vec![4usize, 8, 16], |p| {
///         let mut m = Machine::hmm(2, 4, 10, 64, 32);
///         m.launch(&kernel, LaunchShape::Even(p)).unwrap().time
///     });
/// assert_eq!(times.len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner with the automatic thread policy: the `HMM_THREADS`
    /// environment variable if set, else one worker per hardware thread.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: default_threads(),
        }
    }

    /// A runner that executes jobs one at a time on the calling thread.
    #[must_use]
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// A runner with exactly `n` worker threads (`0` behaves like `1`).
    #[must_use]
    pub fn with_threads(n: usize) -> Self {
        Self { threads: n.max(1) }
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every job, fanning out across the configured worker
    /// threads, and return the results **in job order**.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        parallel_map(jobs, self.threads, f)
    }

    /// Like [`BatchRunner::run`], but each result is returned as a
    /// [`Keyed`] pair carrying the job configuration that produced it,
    /// so downstream filtering can never mis-attribute a result.
    pub fn run_keyed<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<Keyed<T, R>>
    where
        T: Send,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        parallel_map(jobs, self.threads, |config| {
            let result = f(&config);
            Keyed { config, result }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kernel, LaunchShape, Machine};
    use hmm_machine::{abi, Asm};

    fn store_gid() -> Kernel {
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::GID);
        a.halt();
        Kernel::new("store-gid", a.finish())
    }

    #[test]
    fn batch_results_are_order_stable_across_thread_counts() {
        let kernel = store_gid();
        let job = |p: usize| {
            let mut m = Machine::hmm(2, 4, 10, 256, 64);
            m.launch(&kernel, LaunchShape::Even(p)).unwrap()
        };
        let ps: Vec<usize> = vec![4, 8, 12, 16, 24, 32];
        let seq: Vec<_> = BatchRunner::sequential().run(ps.clone(), job);
        for threads in [2, 4, 8] {
            let par = BatchRunner::with_threads(threads).run(ps.clone(), job);
            assert_eq!(par, seq, "batch at {threads} threads diverged");
        }
    }

    #[test]
    fn keyed_results_carry_their_configs() {
        let kernel = store_gid();
        let ps: Vec<usize> = vec![4, 8, 12, 16];
        let keyed = BatchRunner::with_threads(4).run_keyed(ps.clone(), |&p| {
            let mut m = Machine::hmm(2, 4, 10, 256, 64);
            m.launch(&kernel, LaunchShape::Even(p)).unwrap().threads
        });
        assert_eq!(keyed.len(), ps.len());
        for (expect, k) in ps.iter().zip(&keyed) {
            assert_eq!(k.config, *expect);
            // The report's thread count proves the pairing: a misaligned
            // result would carry a different p.
            assert_eq!(k.result, k.config);
        }
    }

    #[test]
    fn constructors_expose_thread_counts() {
        assert_eq!(BatchRunner::sequential().threads(), 1);
        assert_eq!(BatchRunner::with_threads(3).threads(), 3);
        assert_eq!(BatchRunner::with_threads(0).threads(), 1);
        assert!(BatchRunner::new().threads() >= 1);
        assert!(BatchRunner::default().threads() >= 1);
    }
}
