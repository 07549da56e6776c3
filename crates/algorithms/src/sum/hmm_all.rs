//! Theorem 7: the optimal sum on the HMM using all `d` DMMs.
//!
//! The algorithm has five phases:
//!
//! 1. **Column sums** — thread `i` accumulates `a[i], a[i+p], ...` into a
//!    register: contiguous global reads, `O(n/w + nl/p + l)`.
//! 2. **Publish** — each thread stores its accumulator into its DMM's
//!    *shared* memory.
//! 3. **Local tree** — each DMM reduces its `p/d` partial sums with the
//!    Figure 5 pairwise tree *in shared memory*, paying latency 1 per
//!    level: `O(log p)` instead of `O(l·log p)`.
//! 4. **Hand-off** — thread 0 of each DMM writes its DMM's sum to the
//!    global array `S[0..d)`; one global barrier.
//! 5. **Final reduce** — DMM 0 pulls the `d` sums through its shared
//!    memory and reduces them: a constant number of global rounds plus
//!    `O(log d)` shared rounds.
//!
//! > **Theorem 7.** The sum of `n` numbers takes
//! > `O(n/w + nl/p + l + log n)` time units using `p` threads on the HMM
//! > with width `w` and latency `l`, whenever `p ≥ wl` and `n ≥ p`.
//!
//! Compare Lemma 5's `l·log n`: the HMM pays the global latency only
//! `O(1)` times. This module's `latency_additive_not_multiplicative` test
//! measures exactly that separation.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::reduce::ReduceOp;
use crate::{next_pow2, run_staged, Footprint, Run};

const IDX: Reg = Reg(16);
const ACC: Reg = Reg(17);
const T0: Reg = Reg(18);
const T1: Reg = Reg(19);
const T2: Reg = Reg(20);

/// Emit an unrolled pairwise tree over `len2` (a power of two) cells of
/// shared memory at `[0, len2)`, synchronised with DMM barriers. Each
/// participating thread handles exactly one pair per level, so the caller
/// must guarantee `threads ≥ len2 / 2` on the DMM.
fn emit_shared_tree(a: &mut Asm, len2: usize, op: ReduceOp) {
    let mut h = len2 / 2;
    while h >= 1 {
        let skip = a.label();
        a.slt(T0, abi::LTID, h);
        a.brz(T0, skip);
        a.ld_shared(T1, abi::LTID, 0);
        a.ld_shared(T2, abi::LTID, h);
        a.push(op.combine(T1, T1, T2));
        a.st_shared(abi::LTID, 0, T1);
        a.bind(skip);
        a.bar_dmm();
        h /= 2;
    }
}

/// Build the Theorem 7 kernel.
///
/// Layout: input at `[0, n)`; per-DMM sums at `[aux, aux + d2)` with
/// `d2 = next_pow2(d)` — the host must zero that region; the result lands
/// at `G[aux]`. Requires an even launch with `d | p`; `pd = p / d`.
#[must_use]
pub fn sum_kernel(n: usize, p: usize, d: usize, aux: usize) -> Program {
    reduce_kernel(n, p, d, aux, ReduceOp::Sum)
}

/// Generalisation of [`sum_kernel`] to any [`ReduceOp`]; the Theorem 7
/// structure (and its time bound) is operator-independent.
#[must_use]
pub fn reduce_kernel(n: usize, p: usize, d: usize, aux: usize, op: ReduceOp) -> Program {
    assert!(p.is_multiple_of(d), "Theorem 7 kernel expects d | p");
    let pd = p / d;
    let pd2 = next_pow2(pd);
    let d2 = next_pow2(d);
    let mut a = Asm::new();

    // Phase 1: register column reductions over the global input.
    a.mov(ACC, op.identity());
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| {
        a.ld_global(T1, IDX, 0);
        a.push(op.combine(ACC, ACC, T1));
    });

    // Phase 2: publish into shared memory; pad to a power of two with
    // the operator's identity.
    a.st_shared(abi::LTID, 0, ACC);
    if pd2 > pd {
        let skip = a.label();
        a.slt(T0, abi::LTID, pd2 - pd);
        a.brz(T0, skip);
        a.st_shared(abi::LTID, pd, op.identity());
        a.bind(skip);
    }
    a.bar_dmm();

    // Phase 3: per-DMM tree in shared memory (latency 1 per level).
    emit_shared_tree(&mut a, pd2, op);

    // Phase 4: thread 0 of each DMM publishes the DMM sum globally.
    {
        let skip = a.label();
        a.brnz(abi::LTID, skip);
        a.ld_shared(T1, 0, 0);
        a.st_global(abi::DMM, aux, T1);
        a.bind(skip);
        a.bar_global();
    }

    // Phase 5: DMM 0 reduces the d partial sums; everyone else halts.
    let the_end = a.label();
    a.brnz(abi::DMM, the_end);
    let m = pd.min(d2);
    let m2 = next_pow2(m);
    // Strided accumulation of the d2 partials (contiguous, stride m).
    a.mov(ACC, op.identity());
    strided_loop(&mut a, IDX, T0, abi::LTID, d2, m, |a| {
        a.ld_global(T1, IDX, aux);
        a.push(op.combine(ACC, ACC, T1));
    });
    {
        let skip = a.label();
        a.slt(T0, abi::LTID, m);
        a.brz(T0, skip);
        a.st_shared(abi::LTID, 0, ACC);
        a.bind(skip);
    }
    if m2 > m {
        let skip = a.label();
        a.slt(T0, abi::LTID, m2 - m);
        a.brz(T0, skip);
        a.st_shared(abi::LTID, m, op.identity());
        a.bind(skip);
    }
    a.bar_dmm();
    emit_shared_tree(&mut a, m2, op);
    {
        let skip = a.label();
        a.brnz(abi::LTID, skip);
        a.ld_shared(T1, 0, 0);
        a.st_global(aux, 0, T1);
        a.bind(skip);
    }
    a.bind(the_end);
    a.halt();
    a.finish()
}

/// The Theorem 7 footprint for `n` inputs and `p` threads on `d` DMMs:
/// the input plus `next_pow2(d)` per-DMM sums in global memory, and the
/// `next_pow2(p/d)` partial sums of each DMM's tree in shared memory.
#[must_use]
pub fn footprint(n: usize, p: usize, d: usize) -> Footprint {
    Footprint::new(n + next_pow2(d), next_pow2(p / d))
}

/// Run the Theorem 7 sum of `input` with `p` threads spread evenly over
/// the `d` DMMs of an HMM sized by [`footprint`] (`d` must divide `p`).
///
/// # Errors
/// Propagates simulation errors; rejects `p` not divisible by `d`.
pub fn run_sum_hmm(machine: &mut Machine, input: &[Word], p: usize) -> SimResult<Run<Word>> {
    run_reduce_hmm(machine, input, p, ReduceOp::Sum)
}

/// Run any [`ReduceOp`] over `input` with the Theorem 7 structure.
///
/// # Errors
/// Propagates simulation errors; rejects `p` not divisible by `d`.
pub fn run_reduce_hmm(
    machine: &mut Machine,
    input: &[Word],
    p: usize,
    op: ReduceOp,
) -> SimResult<Run<Word>> {
    let d = machine.dmms();
    if !p.is_multiple_of(d) || p == 0 {
        return Err(hmm_machine::SimError::BadLaunch(format!(
            "Theorem 7 reduction needs d | p (got p = {p}, d = {d})"
        )));
    }
    let n = input.len();
    let aux = n;
    let need = footprint(n, p, d);
    let kernel = Kernel::new("reduce-theorem7", reduce_kernel(n, p, d, aux, op));
    run_staged(
        machine,
        need,
        &kernel,
        LaunchShape::Even(p),
        |g| {
            g[..n].copy_from_slice(input);
            g[aux..need.global].fill(op.identity());
        },
        |g| g[aux],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sum::run_sum_dmm_umm;
    use hmm_machine::Machine;
    use hmm_workloads::{ramp, random_words};

    #[test]
    fn sums_correctly_across_shapes() {
        let input = random_words(777, 3, 500);
        let expect = reference::sum(&input).value;
        for (d, p) in [(1, 8), (2, 16), (4, 64), (8, 64)] {
            let mut m = Machine::hmm(d, 4, 8, 1024, 256);
            let run = run_sum_hmm(&mut m, &input, p).unwrap();
            assert_eq!(run.value, expect, "d = {d}, p = {p}");
        }
    }

    #[test]
    fn ramp_sum_closed_form() {
        let input = ramp(4096);
        let mut m = Machine::hmm(4, 8, 32, 8192, 512);
        let run = run_sum_hmm(&mut m, &input, 256).unwrap();
        assert_eq!(run.value, 4095 * 4096 / 2);
    }

    #[test]
    fn rejects_indivisible_thread_counts() {
        let mut m = Machine::hmm(3, 4, 4, 64, 32);
        assert!(run_sum_hmm(&mut m, &[1, 2, 3], 4).is_err());
    }

    /// The headline of the paper: on a single memory the summing tree pays
    /// `l` per level (Lemma 5's `l·log n`), on the HMM it does not
    /// (Theorem 7's `l + log n`). Growing `l` with everything else fixed
    /// must therefore hurt the UMM-only algorithm much more than the HMM
    /// algorithm.
    #[test]
    fn latency_additive_not_multiplicative() {
        let n = 1 << 12;
        let input = vec![1; n];
        // p large enough that the per-thread latency term nl/p is small
        // against the tree term l·log n that separates the algorithms.
        let (d, w, p) = (8, 8, 2048);
        let time_hmm = |l: usize| {
            let mut m = Machine::hmm(d, w, l, n + 16, 512);
            run_sum_hmm(&mut m, &input, p).unwrap().report.time
        };
        let time_umm = |l: usize| {
            let mut m = Machine::umm(w, l, n.next_power_of_two());
            run_sum_dmm_umm(&mut m, &input, p).unwrap().report.time
        };
        let (h_lo, h_hi) = (time_hmm(4), time_hmm(256));
        let (u_lo, u_hi) = (time_umm(4), time_umm(256));
        let h_growth = h_hi as f64 / h_lo as f64;
        let u_growth = u_hi as f64 / u_lo as f64;
        assert!(
            u_growth > 2.0 * h_growth,
            "UMM growth {u_growth:.2} should dwarf HMM growth {h_growth:.2}"
        );
        // And at the large latency the HMM algorithm wins outright.
        assert!(h_hi < u_hi, "HMM {h_hi} vs UMM {u_hi}");
    }
}
