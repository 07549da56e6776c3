//! Lemma 6: the "straightforward" HMM sum using one DMM.
//!
//! Only the `q` threads of `DMM(0)` participate (the paper sets `q = wl`
//! so that the global pipeline is saturated by a single DMM's warps).
//! View the input as a matrix with `q` columns: thread `t` accumulates
//! column `t` (contiguous reads), publishes its column sum, and the column
//! sums are reduced by the Lemma 5 tree — still in *global* memory:
//!
//! > **Lemma 6.** The sum of `n` numbers takes
//! > `O(n/w + nl/q + l·log(wl))` time units using `q = wl` threads on one
//! > DMM of the HMM.
//!
//! With `q = wl` the latency term `nl/q` collapses into the bandwidth term
//! `n/w`, but the final tree still pays `l` per level — the reason
//! Theorem 7 moves the tree into shared memory.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::{next_pow2, run_staged, Footprint, Run};

const IDX: Reg = Reg(16);
const ACC: Reg = Reg(17);
const T0: Reg = Reg(18);
const T1: Reg = Reg(19);
const T2: Reg = Reg(20);

/// Build the Lemma 6 kernel: input at `[0, n)`, column sums at
/// `[aux, aux + q2)` with `q2 = next_pow2(q)` (host-zeroed padding), and
/// the result at `G[aux]`.
#[must_use]
pub fn sum_kernel(n: usize, q: usize, aux: usize) -> Program {
    let q2 = next_pow2(q);
    let mut a = Asm::new();
    // Column sums: acc = sum of A[ltid + j*q].
    a.mov(ACC, 0);
    strided_loop(&mut a, IDX, T0, abi::LTID, n, q, |a| {
        a.ld_global(T1, IDX, 0);
        a.add(ACC, ACC, T1);
    });
    a.st_global(abi::LTID, aux, ACC);
    a.bar_global();
    // Lemma 5 pairwise tree over the q2 column sums, in global memory.
    let mut h = q2 / 2;
    while h >= 1 {
        strided_loop(&mut a, IDX, T0, abi::LTID, h, abi::PD, |a| {
            a.ld_global(T1, IDX, aux);
            a.add(T2, IDX, h);
            a.ld_global(T2, T2, aux);
            a.add(T1, T1, T2);
            a.st_global(IDX, aux, T1);
        });
        a.bar_global();
        h /= 2;
    }
    a.halt();
    a.finish()
}

/// The Lemma 6 footprint for `n` inputs and `q` threads: the input plus
/// `next_pow2(q)` column sums in global memory, no shared memory.
#[must_use]
pub fn footprint(n: usize, q: usize) -> Footprint {
    Footprint::new(n + next_pow2(q), 0)
}

/// Run the Lemma 6 sum of `input` on `machine` (an HMM sized by
/// [`footprint`]) using `q` threads, all placed on DMM 0. The paper's
/// choice is `q = w·l`.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_sum_hmm_single_dmm(
    machine: &mut Machine,
    input: &[Word],
    q: usize,
) -> SimResult<Run<Word>> {
    let n = input.len();
    let aux = n;
    let kernel = Kernel::new("sum-lemma6", sum_kernel(n, q, aux));
    run_staged(
        machine,
        footprint(n, q),
        &kernel,
        LaunchShape::OnDmm0(q),
        |g| g[..n].copy_from_slice(input),
        |g| g[aux],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    #[test]
    fn sums_correctly() {
        let input = random_words(500, 11, 100);
        let expect = reference::sum(&input).value;
        for q in [4, 16, 31, 64] {
            let mut m = Machine::hmm(4, 4, 8, 1024, 256);
            let run = run_sum_hmm_single_dmm(&mut m, &input, q).unwrap();
            assert_eq!(run.value, expect, "q = {q}");
        }
    }

    /// The paper's q = wl choice hides the global latency behind the
    /// bandwidth term: time within a constant of n/w once n is large.
    #[test]
    fn q_equals_wl_hides_latency_in_the_column_phase() {
        let (w, l) = (4, 16);
        let n = 1 << 12;
        let q = w * l;
        let mut m = Machine::hmm(4, w, l, n + 2 * q, 256);
        let input = vec![1; n];
        let run = run_sum_hmm_single_dmm(&mut m, &input, q).unwrap();
        let bandwidth = (n / w) as u64;
        assert!(
            run.report.time < 6 * bandwidth,
            "time {} vs n/w = {bandwidth}",
            run.report.time
        );
    }
}
