//! Theorem 9 / Corollary 10: direct convolution on the HMM.
//!
//! The paper's three-step algorithm. DMM `q` owns the output slice
//! `c[q·m .. (q+1)·m)` with `m = ⌈n/d⌉`:
//!
//! 1. **Stage** — copy `a[0..k)` and `b[q·m .. q·m + m + k − 1)` from
//!    global to shared memory (contiguous reads);
//! 2. **Compute** — evaluate the slice entirely in shared memory: `a'[j]`
//!    is a free broadcast, `b'[i+j]` is bank-conflict-free, latency is 1;
//! 3. **Unstage** — copy the slice of `c` back to global memory.
//!
//! > **Theorem 9.** The convolution takes
//! > `O((n + dk)/w + nk/(dw) + (n + dk)·l/p + l + log k)` time units with
//! > `p` threads on the HMM with `d` DMMs, width `w` and latency `l`.
//! >
//! > **Corollary 10.** For `k ≥ dl/w`(and `k ≪ n`) this is
//! > `O(n/w + nk/(dw) + nl/p + l)` — time-optimal.
//!
//! The global pipeline sees only the `O(n + dk)` staging traffic; the
//! `nk` multiply-accumulate stream runs at latency 1 in the `d` shared
//! memories concurrently, which is where the `d`-fold speed-up over
//! Theorem 8 comes from.

use hmm_machine::isa::{Reg, Space};
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, Machine, Program, SimResult, Word};

use super::{footprint, run_conv, shapes};
use crate::{div_ceil, Run};

const IDX: Reg = Reg(16);
const ACC: Reg = Reg(17);
const JJ: Reg = Reg(18);
const T0: Reg = Reg(19);
const T1: Reg = Reg(20);
const T2: Reg = Reg(21);
/// `dmm * m`: this DMM's offset into `b` / `c`.
const BASE: Reg = Reg(22);
/// Global loop bound for guarded copies.
const LIM: Reg = Reg(23);

/// Build the Theorem 9 kernel.
///
/// Global layout as in [`super::dmm_umm::Layout`]: `a` at `[0, k)`, `b`
/// at `[k, ...)`, `c` at `c_base`. `m = ⌈n/d⌉` is the slice per DMM;
/// shared memory holds `a'` at `[0, k)`, `b'` at `[k, k + m + k − 1)`
/// and `c'` after that.
#[must_use]
#[allow(clippy::similar_names)]
pub fn conv_kernel_hmm(n: usize, k: usize, d: usize) -> Program {
    let m = div_ceil(n, d);
    let b_base = k; // global
    let c_base = k + n + k - 1; // global
    let sb = k; // shared b'
    let sc = k + m + k - 1; // shared c'
    let mut a = Asm::new();
    a.mul(BASE, abi::DMM, m);

    // Step 1a: stage a' (k words, strided copy).
    strided_loop(&mut a, IDX, T0, abi::LTID, k, abi::PD, |a| {
        a.ld_global(T1, IDX, 0);
        a.st_shared(IDX, 0, T1);
    });

    // Step 1b: stage b' (up to m + k - 1 words, guarded against the end
    // of the global array).
    a.mov(IDX, abi::LTID);
    a.sub(LIM, n + k - 1, BASE);
    a.min(LIM, LIM, m + k - 1);
    let top = a.here();
    let done = a.label();
    a.slt(T0, IDX, LIM);
    a.brz(T0, done);
    a.add(T1, BASE, IDX);
    a.ld_global(T1, T1, b_base);
    a.st_shared(IDX, sb, T1);
    a.add(IDX, IDX, abi::PD);
    a.jmp(top);
    a.bind(done);
    a.bar_dmm();

    // Step 2: compute c'[i] for i < min(m, n - base) in shared memory.
    a.sub(LIM, n, BASE);
    a.min(LIM, LIM, m);
    strided_loop(&mut a, IDX, T0, abi::LTID, LIM, abi::PD, |a| {
        a.mov(ACC, 0);
        strided_loop(a, JJ, T0, 0, k, 1, |a| {
            a.ld_shared(T1, JJ, 0); // a'[j]: broadcast
            a.add(T2, IDX, JJ);
            a.ld_shared(T2, T2, sb); // b'[i+j]: conflict-free
            a.mul(T1, T1, T2);
            a.add(ACC, ACC, T1);
        });
        a.st_shared(IDX, sc, ACC);
    });
    a.bar_dmm();

    // Step 3: unstage c' to global.
    strided_loop(&mut a, IDX, T0, abi::LTID, LIM, abi::PD, |a| {
        a.ld(T1, Space::Shared, IDX, sc);
        a.add(T2, BASE, IDX);
        a.st_global(T2, c_base, T1);
    });
    a.halt();
    a.finish()
}

/// Run the Theorem 9 convolution with `p` threads spread evenly over the
/// `d` DMMs (`d | p` required) of an HMM sized by
/// [`footprint`]`(n, k, Some(d), 0)`.
///
/// # Errors
/// Propagates simulation errors; rejects bad shapes or `p % d != 0`.
pub fn run_conv_hmm(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (k, n) = shapes(a, b)?;
    let d = machine.dmms();
    if p == 0 || !p.is_multiple_of(d) {
        return Err(hmm_machine::SimError::BadLaunch(format!(
            "Theorem 9 convolution needs d | p (got p = {p}, d = {d})"
        )));
    }
    let kernel = Kernel::new("conv-theorem9", conv_kernel_hmm(n, k, d));
    let need = footprint(n, k, Some(d), 0);
    run_conv(machine, a, b, need, &kernel, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::run_conv_dmm_umm;
    use crate::reference;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    fn hmm_for(n: usize, k: usize, d: usize) -> Machine {
        footprint(n, k, Some(d), 0).hmm(d, 4, 8)
    }

    #[test]
    fn matches_reference_across_shapes() {
        for (n, k, d, p) in [
            (32, 4, 2, 8),
            (64, 7, 4, 16),
            (50, 3, 4, 16),
            (16, 5, 8, 32),
        ] {
            let a = random_words(k, n as u64, 30);
            let b = random_words(n + k - 1, k as u64, 30);
            let expect = reference::convolution(&a, &b).value;
            let mut m = hmm_for(n, k, d);
            let run = run_conv_hmm(&mut m, &a, &b, p).unwrap();
            assert_eq!(run.value, expect, "n={n} k={k} d={d} p={p}");
        }
    }

    #[test]
    fn rejects_indivisible_threads() {
        let mut m = hmm_for(32, 4, 3);
        let a = random_words(4, 0, 5);
        let b = random_words(35, 1, 5);
        assert!(run_conv_hmm(&mut m, &a, &b, 8).is_err());
    }

    /// Theorem 9 vs Theorem 8: staging through the d shared memories beats
    /// running every multiply against the global pipeline, by roughly the
    /// DMM count once k is large enough (Corollary 10's regime).
    #[test]
    fn hmm_beats_single_memory_convolution() {
        let (n, k) = (256, 16);
        let (d, w, l, p) = (8, 8, 64, 256);
        let a = random_words(k, 4, 10);
        let b = random_words(n + k - 1, 5, 10);
        let mut hmm = footprint(n, k, Some(d), 0).hmm(d, w, l);
        let t_hmm = run_conv_hmm(&mut hmm, &a, &b, p).unwrap();
        let mut umm = footprint(n, k, None, 0).umm(w, l);
        let t_umm = run_conv_dmm_umm(&mut umm, &a, &b, p.min(n)).unwrap();
        assert_eq!(t_hmm.value, t_umm.value);
        assert!(
            t_hmm.report.time * 2 < t_umm.report.time,
            "HMM {} vs UMM {}",
            t_hmm.report.time,
            t_umm.report.time
        );
    }
}
