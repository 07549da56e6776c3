//! Lemma 5: the optimal sum on the (standalone) DMM and UMM.
//!
//! The PRAM pairwise algorithm of Figure 5 executed with contiguous
//! accesses: in phase `h` (`h = n/2, n/4, ..., 1`) the threads perform
//! `a[j] <- a[j] + a[j+h]` for all `j < h`, each of the three access
//! streams (`a[j]` read, `a[j+h]` read, `a[j]` write) being contiguous.
//! By Theorem 2 each phase costs `O(h/w + hl/p + l)`, and the geometric
//! series gives
//!
//! > **Lemma 5.** The sum of `n` numbers takes
//! > `O(n/w + nl/p + l·log n)` time units with `p` threads on the DMM and
//! > the UMM of width `w` and latency `l`.
//!
//! The `l·log n` term — the full latency paid at every tree level — is
//! exactly what the HMM algorithm of Theorem 7 eliminates.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::reduce::ReduceOp;
use crate::{next_pow2, run_staged, Footprint, Run};

const IDX: Reg = Reg(16);
const T0: Reg = Reg(17);
const T1: Reg = Reg(18);
const T2: Reg = Reg(19);

/// Build the Lemma 5 kernel for an input padded to `n2 = next_pow2(n)`
/// words at global addresses `[base, base + n2)`. The host must zero the
/// padding. The sum ends up at `G[base]`.
#[must_use]
pub fn sum_kernel(base: usize, n2: usize) -> Program {
    reduce_kernel(base, n2, ReduceOp::Sum)
}

/// Generalisation of [`sum_kernel`] to any [`ReduceOp`] (the tree shape
/// and the access pattern — and therefore the Lemma 5 time bound — do not
/// depend on the operator).
#[must_use]
pub fn reduce_kernel(base: usize, n2: usize, op: ReduceOp) -> Program {
    assert!(n2.is_power_of_two(), "input region must be a power of two");
    let mut a = Asm::new();
    let mut h = n2 / 2;
    while h >= 1 {
        // for j = gid; j < h; j += p: A[j] += A[j + h]
        strided_loop(&mut a, IDX, T0, abi::GID, h, abi::P, |a| {
            a.ld_global(T1, IDX, base);
            a.add(T2, IDX, h);
            a.ld_global(T2, T2, base);
            a.push(op.combine(T1, T1, T2));
            a.st_global(IDX, base, T1);
        });
        a.bar_global();
        h /= 2;
    }
    a.halt();
    a.finish()
}

/// The Lemma 5 footprint for `n` inputs: the input padded to
/// `next_pow2(n)` global words, no shared memory.
#[must_use]
pub fn footprint(n: usize) -> Footprint {
    Footprint::new(next_pow2(n), 0)
}

/// Run the Lemma 5 sum of `input` with `p` threads on `machine` (a DMM or
/// UMM; the kernel also runs unchanged on an HMM's global memory) sized
/// by [`footprint`].
///
/// # Errors
/// Propagates simulation errors.
pub fn run_sum_dmm_umm(machine: &mut Machine, input: &[Word], p: usize) -> SimResult<Run<Word>> {
    run_reduce_dmm_umm(machine, input, p, ReduceOp::Sum)
}

/// Run any [`ReduceOp`] over `input` with `p` threads on a DMM or UMM
/// (padding with the operator's identity).
///
/// # Errors
/// Propagates simulation errors.
pub fn run_reduce_dmm_umm(
    machine: &mut Machine,
    input: &[Word],
    p: usize,
    op: ReduceOp,
) -> SimResult<Run<Word>> {
    let n = input.len();
    let need = footprint(n);
    let kernel = Kernel::new("reduce-lemma5", reduce_kernel(0, need.global, op));
    run_staged(
        machine,
        need,
        &kernel,
        LaunchShape::Even(p),
        |g| {
            g[..n].copy_from_slice(input);
            g[n..need.global].fill(op.identity());
        },
        |g| g[0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    #[test]
    fn sums_correctly_on_both_models() {
        let input = random_words(1000, 7, 1000);
        let expect = reference::sum(&input).value;
        for p in [4, 16, 64] {
            let mut dmm = Machine::dmm(4, 8, 1024);
            assert_eq!(run_sum_dmm_umm(&mut dmm, &input, p).unwrap().value, expect);
            let mut umm = Machine::umm(4, 8, 1024);
            assert_eq!(run_sum_dmm_umm(&mut umm, &input, p).unwrap().value, expect);
        }
    }

    #[test]
    fn non_power_of_two_inputs_are_padded() {
        let input: Vec<Word> = (1..=13).collect();
        let mut m = Machine::umm(4, 2, 16);
        let run = run_sum_dmm_umm(&mut m, &input, 8).unwrap();
        assert_eq!(run.value, 91);
    }

    #[test]
    fn single_element() {
        let mut m = Machine::dmm(4, 2, 4);
        assert_eq!(run_sum_dmm_umm(&mut m, &[42], 4).unwrap().value, 42);
    }

    /// Lemma 5's l·log n latency term: with p = n threads the tree
    /// dominates, and doubling l roughly doubles the time.
    #[test]
    fn latency_multiplies_the_tree_depth() {
        let n = 256;
        let input = vec![1; n];
        let t = |l: usize| {
            let mut m = Machine::umm(8, l, 512);
            run_sum_dmm_umm(&mut m, &input, n).unwrap().report.time
        };
        let t16 = t(16);
        let t64 = t(64);
        // Ratio should approach 4 as l dominates; allow slack for the
        // constant (non-latency) work.
        let ratio = t64 as f64 / t16 as f64;
        assert!(ratio > 2.0, "t64/t16 = {ratio}");
    }
}
