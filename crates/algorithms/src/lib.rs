//! # hmm-algorithms — the paper's algorithms as executable kernels
//!
//! Each module implements one algorithm family from Nakano's HMM paper,
//! as real ISA programs launched on a simulated [`hmm_machine::Machine`].
//! Every run returns both the *numerical result* (validated against the
//! sequential references in [`mod@reference`]) and the *measured time
//! units* (validated against the closed forms in `hmm-theory`).
//!
//! | Module | Paper result |
//! |---|---|
//! | [`pram`] | Lemma 3 / Lemma 4 — sum and direct convolution on the PRAM preset |
//! | [`contiguous`] | Lemma 1 / Theorem 2 — contiguous access in `O(n/w + nl/p + l)` |
//! | [`sum`] | Lemma 5 (DMM/UMM), Lemma 6 (HMM, one DMM), Theorem 7 (HMM, all DMMs) |
//! | [`convolution`] | Theorem 8 (DMM/UMM), Theorem 9 / Corollary 10 (HMM) |
//! | [`prefix`] | extension: prefix-sums via shared-memory staging (paper ref \[17\]) |
//! | [`permutation`] | extension: conflict-free offline permutation on the DMM (refs \[13\], \[19\]) |
//! | [`mod@reference`] | sequential baselines (the "Sequential" column of Table I) |
//!
//! Each algorithm fixes a memory layout, and the layout fixes the machine
//! a launch needs. Every runner family states that once, in a `footprint`
//! function returning a [`Footprint`]; callers size their machines from
//! it, and every runner rejects a machine whose global memory is smaller
//! with [`SimError::BadLaunch`] before it stages anything. Runners return
//! a [`Run`]: the computed value plus the simulation report.

#![warn(missing_docs)]

use hmm_machine::{Kernel, LaunchShape, Machine, SimError, SimReport, SimResult, Word};

pub mod contiguous;
pub mod convolution;
pub mod matmul;
pub mod patterns;
pub mod permutation;
pub mod pram;
pub mod prefix;
pub mod reduce;
pub mod reference;
pub mod sort;
pub mod string_match;
pub mod sum;

/// Next power of two, minimum 1. Shared by the tree-reduction builders.
#[must_use]
pub(crate) fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

/// Integer ceiling division.
#[must_use]
pub(crate) fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// The memory one launch needs: `global` words of global memory and
/// `shared` words of shared memory on every DMM (0 for kernels that use
/// no shared memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Global-memory words.
    pub global: usize,
    /// Shared-memory words per DMM.
    pub shared: usize,
}

impl Footprint {
    /// `global` words of global memory and `shared` words per DMM.
    #[must_use]
    pub fn new(global: usize, shared: usize) -> Self {
        Self { global, shared }
    }

    /// A standalone DMM of width `w` and latency `l` holding this footprint.
    #[must_use]
    pub fn dmm(self, w: usize, l: usize) -> Machine {
        Machine::dmm(w, l, self.global)
    }

    /// A standalone UMM of width `w` and latency `l` holding this footprint.
    #[must_use]
    pub fn umm(self, w: usize, l: usize) -> Machine {
        Machine::umm(w, l, self.global)
    }

    /// A PRAM of `p` processors holding this footprint: a UMM of latency
    /// 1 whose width, `next_pow2(max(global, p))`, puts every processor in
    /// one warp and every address in one address group (see [`pram`]).
    #[must_use]
    pub fn pram(self, p: usize) -> Machine {
        Machine::umm(next_pow2(self.global.max(p)), 1, self.global)
    }

    /// An HMM with `d` DMMs, width `w` and latency `l` holding this
    /// footprint.
    #[must_use]
    pub fn hmm(self, d: usize, w: usize, l: usize) -> Machine {
        Machine::hmm(d, w, l, self.global, self.shared)
    }
}

/// What a runner returns: the computed value plus the simulation report.
#[derive(Debug, Clone)]
pub struct Run<T> {
    /// The computed value.
    pub value: T,
    /// Timing and memory statistics.
    pub report: SimReport,
}

/// Reject `machine` unless its global memory holds `need`. Shared memory
/// is not checked here: a kernel that overruns it stops with
/// [`SimError::OutOfBounds`] at the first such access.
pub(crate) fn check_fit(machine: &Machine, need: Footprint, kernel: &Kernel) -> SimResult<()> {
    let have = machine.global().len();
    if have < need.global {
        return Err(SimError::BadLaunch(format!(
            "{} needs {} global words, the machine has {have}",
            kernel.name, need.global
        )));
    }
    Ok(())
}

/// The staged launch every runner shares: check that `machine` holds
/// `need`, zero its global memory, let `stage` write the inputs, launch
/// `kernel` and let `read` take the result out of global memory.
pub(crate) fn run_staged<T>(
    machine: &mut Machine,
    need: Footprint,
    kernel: &Kernel,
    shape: LaunchShape,
    stage: impl FnOnce(&mut [Word]),
    read: impl FnOnce(&[Word]) -> T,
) -> SimResult<Run<T>> {
    check_fit(machine, need, kernel)?;
    machine.clear_global();
    stage(machine.global_mut());
    let report = machine.launch(kernel, shape)?;
    Ok(Run {
        value: read(machine.global()),
        report,
    })
}
