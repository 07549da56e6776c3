//! Contiguous memory access (paper Section IV: Lemma 1 and Theorem 2).
//!
//! `p` threads access `n` consecutive cells so that in round `m` thread
//! `i` touches address `m·p + i`. Each warp's requests then fall into `w`
//! distinct banks (DMM) *and* one address group (UMM), so a round costs
//! one pipeline slot per warp and the rounds pipeline across warps:
//!
//! > **Lemma 1.** Contiguous access to an array of size `n` takes
//! > `O(n/w + nl/p + l)` time units with `p` threads on the DMM and the
//! > UMM of width `w` and latency `l`.
//!
//! Theorem 2 extends this to up to `w/l` arrays accessed in turn; the
//! [`copy_kernel`] (read one array, write another) is the two-array case
//! every multi-step HMM algorithm leans on.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, SimReport, SimResult, Word};

use crate::{check_fit, run_staged, Footprint};

const IDX: Reg = Reg(16);
const T0: Reg = Reg(17);
const T1: Reg = Reg(18);

/// What the access kernel does with each cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read every cell (values discarded).
    Read,
    /// Write a constant to every cell.
    Write,
}

/// Build the contiguous-access kernel over `[base, base + n)` in global
/// memory: round `m` has thread `i` access `base + m·p + i`.
#[must_use]
pub fn access_kernel(base: usize, n: usize, mode: AccessMode) -> hmm_machine::Program {
    let mut a = Asm::new();
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| match mode {
        AccessMode::Read => a.ld_global(T1, IDX, base),
        AccessMode::Write => a.st_global(IDX, base, 1),
    });
    a.halt();
    a.finish()
}

/// Build the two-array copy kernel: `G[dst + i] <- G[src + i]` for all
/// `i < n`, with both access streams contiguous (Theorem 2 with 2 arrays).
#[must_use]
pub fn copy_kernel(src: usize, dst: usize, n: usize) -> hmm_machine::Program {
    let mut a = Asm::new();
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| {
        a.ld_global(T1, IDX, src);
        a.st_global(IDX, dst, T1);
    });
    a.halt();
    a.finish()
}

/// The contiguous-access footprint: `arrays` arrays of `n` words laid
/// end to end in global memory (1 for [`run_access`], 2 for
/// [`run_copy`]).
#[must_use]
pub fn footprint(n: usize, arrays: usize) -> Footprint {
    Footprint::new(n * arrays, 0)
}

/// Run the contiguous access of `n` cells with `p` threads on `machine`
/// (sized by [`footprint`]`(n, 1)`) and return the report (Lemma 1
/// measurement). The cells keep whatever the machine holds.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_access(
    machine: &mut Machine,
    n: usize,
    p: usize,
    mode: AccessMode,
) -> SimResult<SimReport> {
    let kernel = Kernel::new("contiguous-access", access_kernel(0, n, mode));
    check_fit(machine, footprint(n, 1), &kernel)?;
    machine.launch(&kernel, LaunchShape::Even(p))
}

/// Run the two-array contiguous copy (Theorem 2 measurement) of `input`
/// into `[n, 2n)` on a machine sized by [`footprint`]`(n, 2)` and return
/// the report.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_copy(machine: &mut Machine, input: &[Word], p: usize) -> SimResult<SimReport> {
    let n = input.len();
    let kernel = Kernel::new("contiguous-copy", copy_kernel(0, n, n));
    let run = run_staged(
        machine,
        footprint(n, 2),
        &kernel,
        LaunchShape::Even(p),
        |g| g[..n].copy_from_slice(input),
        |_| (),
    )?;
    Ok(run.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::Machine;

    #[test]
    fn copy_moves_the_data() {
        let mut m = Machine::umm(4, 8, 64);
        let input: Vec<Word> = (0..16).map(|x| x * 3 - 5).collect();
        run_copy(&mut m, &input, 8).unwrap();
        assert_eq!(&m.global()[16..32], &input[..]);
    }

    /// Lemma 1's three regimes, measured. With fixed n and w:
    /// growing p from w to n/..., the time falls like nl/p until the
    /// bandwidth term n/w dominates.
    #[test]
    fn access_time_tracks_lemma1() {
        let w = 4;
        let l = 32;
        let n = 1 << 12;
        let mut prev = u64::MAX;
        let mut times = Vec::new();
        for p in [w, 4 * w, 16 * w, 64 * w] {
            let mut m = Machine::umm(w, l, n);
            let rep = run_access(&mut m, n, p, AccessMode::Read).unwrap();
            assert!(rep.time <= prev, "more threads should not be slower");
            prev = rep.time;
            times.push((p, rep.time));
        }
        // p = w: latency-bound, ~ nl/p = n*l/w.
        let (p0, t0) = times[0];
        let predict0 = (n * l / p0) as u64;
        assert!(
            t0 >= predict0 && t0 <= 3 * predict0,
            "latency-bound time {t0} vs predicted {predict0}"
        );
        // p large: bandwidth-bound, ~ n/w slots.
        let (_, t3) = times[3];
        let predict3 = (n / w) as u64;
        assert!(
            t3 >= predict3 && t3 <= 3 * predict3,
            "bandwidth-bound time {t3} vs predicted {predict3}"
        );
    }

    /// The DMM and UMM cost contiguous access identically (Lemma 1 covers
    /// both models with one bound).
    #[test]
    fn dmm_and_umm_agree_on_contiguous_access() {
        let (w, l, n, p) = (4, 16, 1 << 10, 64);
        let mut dmm = Machine::dmm(w, l, n);
        let mut umm = Machine::umm(w, l, n);
        let td = run_access(&mut dmm, n, p, AccessMode::Write).unwrap().time;
        let tu = run_access(&mut umm, n, p, AccessMode::Write).unwrap().time;
        assert_eq!(td, tu);
    }

    /// Writes mark every cell exactly once.
    #[test]
    fn write_mode_touches_all_cells() {
        let n = 100;
        let mut m = Machine::dmm(4, 2, n);
        run_access(&mut m, n, 8, AccessMode::Write).unwrap();
        assert!(m.global()[..n].iter().all(|&v| v == 1));
    }

    /// p > n leaves the extra threads idle but still completes.
    #[test]
    fn more_threads_than_cells() {
        let n = 8;
        let mut m = Machine::umm(4, 4, 64);
        let rep = run_access(&mut m, n, 32, AccessMode::Write).unwrap();
        assert_eq!(rep.threads, 32);
        assert!(m.global()[..n].iter().all(|&v| v == 1));
    }
}
