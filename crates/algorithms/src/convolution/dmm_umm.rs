//! Theorem 8: direct convolution on the standalone DMM / UMM.
//!
//! Two regimes, as in the paper:
//!
//! * **Strided** (`p ≤ n`) — thread `i` evaluates `c[i], c[i+p], ...`
//!   whole. In every inner step the warp reads the same `a[j]` (a free
//!   broadcast) and contiguous `b[i+j]`, so the aggregate cost is
//!   `O(nk/w + nkl/p)` — both terms emerge from the pipeline: `2nk/w`
//!   slots of mandatory traffic, and `nkl/p` of per-thread latency
//!   blocking when warps are too few to hide `l`.
//! * **Blocked** (`n < p ≤ nk`) — `p = n·q` threads; each output's `k`
//!   products split into `q` blocks computed by different threads, whose
//!   partials are combined by `log q` contiguous tree rounds costing
//!   `O(l)` each: the paper's `l·log k` term.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, Machine, Program, SimResult, Word};

use super::{footprint, run_conv, shapes};
use crate::{div_ceil, next_pow2, Run};

const IDX: Reg = Reg(16);
const ACC: Reg = Reg(17);
const JJ: Reg = Reg(18);
const T0: Reg = Reg(19);
const T1: Reg = Reg(20);
const T2: Reg = Reg(21);
const BLK: Reg = Reg(22);

/// Memory layout shared by the Theorem 8 kernels: `a` at `[0, k)`, `b` at
/// `[k, k + n + k - 1)`, `c` at `[c_base, c_base + n)`.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Kernel length.
    pub k: usize,
    /// Output length.
    pub n: usize,
    /// Base address of `b`.
    pub b_base: usize,
    /// Base address of `c`.
    pub c_base: usize,
}

impl Layout {
    /// The canonical layout for sizes `(n, k)`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        Self {
            k,
            n,
            b_base: k,
            c_base: k + n + k - 1,
        }
    }
}

/// Build the strided (`p ≤ n`) kernel of Theorem 8.
#[must_use]
pub fn conv_kernel_strided(layout: Layout) -> Program {
    let Layout {
        k,
        n,
        b_base,
        c_base,
    } = layout;
    let mut a = Asm::new();
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| {
        a.mov(ACC, 0);
        strided_loop(a, JJ, T0, 0, k, 1, |a| {
            a.ld_global(T1, JJ, 0); // a[j]: broadcast
            a.add(T2, IDX, JJ);
            a.ld_global(T2, T2, b_base); // b[i + j]: contiguous
            a.mul(T1, T1, T2);
            a.add(ACC, ACC, T1);
        });
        a.st_global(IDX, c_base, ACC);
    });
    a.halt();
    a.finish()
}

/// Build the blocked (`p = n·q`) kernel of Theorem 8.
///
/// Thread `gid` computes block `gid / n` of output `gid mod n`; block `b`
/// covers products `j ∈ [b·⌈k/q⌉, (b+1)·⌈k/q⌉) ∩ [0, k)`. Partials live
/// at `[p_base, p_base + q2·n)` (`q2 = next_pow2(q)`, host-zeroed), are
/// tree-reduced in `log q2` contiguous rounds, and block 0 writes `c`.
#[must_use]
pub fn conv_kernel_blocked(layout: Layout, q: usize, p_base: usize) -> Program {
    let Layout {
        k,
        n,
        b_base,
        c_base,
    } = layout;
    let q2 = next_pow2(q);
    let kq = div_ceil(k, q);
    let mut a = Asm::new();
    // i = gid mod n, blk = gid / n.
    a.rem(IDX, abi::GID, n);
    a.div(BLK, abi::GID, n);
    // acc over j in [blk*kq, min((blk+1)*kq, k))
    a.mov(ACC, 0);
    a.mul(JJ, BLK, kq);
    a.add(T2, JJ, kq);
    a.min(T2, T2, k); // loop bound in T2... T2 reused below; copy to a reg
    let bound = Reg(23);
    a.mov(bound, T2);
    let inner = a.here();
    let inner_done = a.label();
    a.slt(T0, JJ, bound);
    a.brz(T0, inner_done);
    a.ld_global(T1, JJ, 0);
    a.add(T2, IDX, JJ);
    a.ld_global(T2, T2, b_base);
    a.mul(T1, T1, T2);
    a.add(ACC, ACC, T1);
    a.add(JJ, JJ, 1);
    a.jmp(inner);
    a.bind(inner_done);
    // partials[blk*n + i] = acc
    a.mul(T0, BLK, n);
    a.add(T0, T0, IDX);
    a.st_global(T0, p_base, ACC);
    a.bar_global();
    // Tree over q2 blocks: partials[b*n+i] += partials[(b+h)*n+i].
    let mut h = q2 / 2;
    while h >= 1 {
        let skip = a.label();
        a.slt(T0, BLK, h);
        a.brz(T0, skip);
        a.mul(T0, BLK, n);
        a.add(T0, T0, IDX);
        a.ld_global(T1, T0, p_base);
        a.ld_global(T2, T0, p_base + h * n);
        a.add(T1, T1, T2);
        a.st_global(T0, p_base, T1);
        a.bind(skip);
        a.bar_global();
        h /= 2;
    }
    // Block 0 publishes c[i].
    let end = a.label();
    a.brnz(BLK, end);
    a.ld_global(T1, IDX, p_base);
    a.st_global(IDX, c_base, T1);
    a.bind(end);
    a.halt();
    a.finish()
}

/// Run the strided Theorem 8 convolution on `machine` (sized by
/// [`footprint`]`(n, k, None, 0)`) with `p ≤ n` threads (`p` is clamped
/// into `[1, n]`).
///
/// # Errors
/// Propagates simulation errors; rejects bad shapes.
pub fn run_conv_dmm_umm(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (k, n) = shapes(a, b)?;
    let kernel = Kernel::new(
        "conv-theorem8-strided",
        conv_kernel_strided(Layout::new(n, k)),
    );
    let need = footprint(n, k, None, 0);
    run_conv(machine, a, b, need, &kernel, p.clamp(1, n))
}

/// Run the blocked Theorem 8 convolution with `p = n·q` threads on a
/// machine sized by [`footprint`]`(n, k, None, q)`.
///
/// # Errors
/// Propagates simulation errors; rejects bad shapes or `q` outside
/// `[1, k]`.
pub fn run_conv_blocked(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    q: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (k, n) = shapes(a, b)?;
    if q == 0 || q > k {
        return Err(hmm_machine::SimError::BadLaunch(format!(
            "blocked convolution needs 1 <= q <= k (got q = {q}, k = {k})"
        )));
    }
    let layout = Layout::new(n, k);
    let p_base = layout.c_base + n;
    let kernel = Kernel::new(
        "conv-theorem8-blocked",
        conv_kernel_blocked(layout, q, p_base),
    );
    let need = footprint(n, k, None, q);
    run_conv(machine, a, b, need, &kernel, n * q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hmm_machine::Machine;
    use hmm_workloads::{impulse, random_words};

    #[test]
    fn strided_matches_reference_on_both_models() {
        let a = random_words(5, 1, 20);
        let b = random_words(64 + 4, 2, 20);
        let expect = reference::convolution(&a, &b).value;
        let need = footprint(64, 5, None, 0);
        for p in [1, 8, 32, 64] {
            let mut umm = need.umm(4, 8);
            assert_eq!(run_conv_dmm_umm(&mut umm, &a, &b, p).unwrap().value, expect);
            let mut dmm = need.dmm(4, 8);
            assert_eq!(run_conv_dmm_umm(&mut dmm, &a, &b, p).unwrap().value, expect);
        }
    }

    #[test]
    fn blocked_matches_reference() {
        let a = random_words(8, 5, 10);
        let b = random_words(32 + 7, 6, 10);
        let expect = reference::convolution(&a, &b).value;
        for q in [1, 2, 3, 8] {
            let mut m = footprint(32, 8, None, q).umm(4, 8);
            assert_eq!(
                run_conv_blocked(&mut m, &a, &b, q).unwrap().value,
                expect,
                "q = {q}"
            );
        }
    }

    #[test]
    fn impulse_recovers_the_signal() {
        let a = impulse(4);
        let b = random_words(16 + 3, 9, 100);
        let mut m = footprint(16, 4, None, 0).umm(4, 2);
        let run = run_conv_dmm_umm(&mut m, &a, &b, 8).unwrap();
        assert_eq!(run.value, b[..16].to_vec());
    }

    #[test]
    fn rejects_bad_shapes_and_q() {
        let mut m = Machine::umm(4, 2, 256);
        assert!(run_conv_dmm_umm(&mut m, &[], &[1, 2], 1).is_err());
        assert!(run_conv_dmm_umm(&mut m, &[1, 2, 3], &[1, 2], 1).is_err());
        assert!(run_conv_blocked(&mut m, &[1, 2], &[1, 2, 3], 0).is_err());
        assert!(run_conv_blocked(&mut m, &[1, 2], &[1, 2, 3], 3).is_err());
    }

    /// More threads help until the bandwidth term dominates (Theorem 8's
    /// nk/w + nkl/p shape).
    #[test]
    fn strided_time_improves_with_threads() {
        let a = random_words(4, 2, 10);
        let b = random_words(256 + 3, 3, 10);
        let t = |p: usize| {
            let mut m = footprint(256, 4, None, 0).umm(4, 16);
            run_conv_dmm_umm(&mut m, &a, &b, p).unwrap().report.time
        };
        let (t4, t64, t256) = (t(4), t(64), t(256));
        assert!(t64 < t4 / 4, "{t64} vs {t4}");
        assert!(t256 <= t64);
    }
}
