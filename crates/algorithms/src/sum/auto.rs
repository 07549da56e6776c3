//! Adaptive summing: remove Theorem 7's side conditions.
//!
//! Theorem 7 is stated for `p ≥ wl`, `n ≥ p` and `d | p`; the paper
//! remarks that the conditions can be removed "by computing the sum in a
//! recursive manner" (and omits the construction for space). Our kernel
//! already guards every loop, so arbitrary `n` works; what remains is
//! choosing a *legal and sensible* `p` for the machine at hand:
//!
//! * `p` must be a multiple of `d`;
//! * each DMM must be able to hold its `next_pow2(p/d)` partial sums in
//!   shared memory;
//! * more threads than `max(n, wl·d)` buy nothing — `wl` threads per DMM
//!   saturate the global pipeline (the paper's Lemma 6 argument), and
//!   beyond `n` threads sit idle.
//!
//! [`run_sum_hmm_auto`] clamps a requested thread budget accordingly and
//! falls back to the single-DMM algorithm for degenerate machines.

use hmm_machine::{Machine, SimResult, Word};

use super::{run_sum_hmm, run_sum_hmm_single_dmm};
use crate::{next_pow2, Run};

/// The thread count [`run_sum_hmm_auto`] will actually launch for a
/// requested budget `p_max` on `machine` with input size `n`.
#[must_use]
pub fn auto_threads(machine: &Machine, n: usize, p_max: usize) -> usize {
    let d = machine.dmms();
    let w = machine.width();
    let l = machine.latency();
    // Shared memory must hold the per-DMM tree.
    let shared_cap = machine.shared_capacity();
    let pd_cap = if shared_cap.is_power_of_two() {
        shared_cap
    } else {
        next_pow2(shared_cap) / 2
    };
    // Saturation point: wl threads per DMM hide the global latency; more
    // than n threads never help.
    let saturation = (w * l).max(1);
    let pd = (p_max / d.max(1))
        .min(pd_cap.max(1))
        .min(saturation)
        .min(next_pow2(n.max(1)))
        .max(1);
    pd * d
}

/// Sum `input` on `machine` (an HMM) using at most `p_max` threads,
/// choosing a legal configuration automatically.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_sum_hmm_auto(
    machine: &mut Machine,
    input: &[Word],
    p_max: usize,
) -> SimResult<Run<Word>> {
    let n = input.len();
    if machine.dmms() == 1 {
        // A one-DMM HMM is Lemma 6's machine; use the single-DMM path
        // with the paper's q = wl saturation choice.
        let q = (machine.width() * machine.latency()).clamp(1, p_max.max(1));
        return run_sum_hmm_single_dmm(machine, input, q);
    }
    let p = auto_threads(machine, n, p_max.max(machine.dmms()));
    run_sum_hmm(machine, input, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    #[test]
    fn auto_threads_is_legal() {
        for (d, w, l, shared) in [(4usize, 8usize, 16usize, 64usize), (16, 32, 400, 4096)] {
            let m = Machine::hmm(d, w, l, 1 << 16, shared);
            for &(n, p_max) in &[(100usize, 7usize), (1 << 14, 1 << 20), (3, 1000)] {
                let p = auto_threads(&m, n, p_max);
                assert!(p >= d, "at least one thread per DMM");
                assert!(p.is_multiple_of(d));
                assert!((p / d).next_power_of_two() <= shared.next_power_of_two());
            }
        }
    }

    #[test]
    fn auto_sum_is_correct_in_every_regime() {
        for (n, d, shared, p_max) in [
            (3usize, 4usize, 32usize, 1_000_000usize), // tiny input, huge budget
            (1000, 4, 32, 8),                          // tiny budget
            (513, 8, 256, 512),                        // odd n
            (64, 1, 64, 64),                           // single-DMM machine
        ] {
            let input = random_words(n, (n * d) as u64, 100);
            let expect = reference::sum(&input).value;
            let mut m = Machine::hmm(d, 4, 8, 4 * n.next_power_of_two() + 64, shared);
            let run = run_sum_hmm_auto(&mut m, &input, p_max).unwrap();
            assert_eq!(run.value, expect, "n={n} d={d} p_max={p_max}");
        }
    }

    /// A huge thread budget is clamped to the saturation point instead of
    /// exploding the launch.
    #[test]
    fn budget_is_clamped_to_saturation() {
        let m = Machine::hmm(4, 8, 16, 1 << 14, 1 << 10);
        let p = auto_threads(&m, 1 << 12, usize::MAX / 2);
        assert!(p <= 4 * 8 * 16, "p = {p} exceeds d·w·l saturation");
    }
}
