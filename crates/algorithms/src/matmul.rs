//! Application study: dense matrix multiplication on the HMM.
//!
//! Not a result from the paper — an application of its model, showing how
//! the Theorem 9 staging pattern generalises: each DMM owns a block of
//! `C`'s rows, stages its rows of `A` once and the columns of `B` tile by
//! tile through shared memory, and runs the `O(m³)` multiply–accumulate
//! stream at latency 1. The global pipeline sees `O(m² + m²·d/tw)` words
//! instead of `O(m³)` — the same traffic-compression argument as the
//! convolution, with the tile width `tw` in the role of `k`.
//!
//! [`run_matmul_hmm`] implements that; [`run_matmul_umm`] is the baseline
//! that reads every operand from global memory.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::{div_ceil, run_staged, Footprint, Run};

const IDX: Reg = Reg(16);
const ACC: Reg = Reg(17);
const KK: Reg = Reg(18);
const T0: Reg = Reg(19);
const T1: Reg = Reg(20);
const T2: Reg = Reg(21);
/// First C-row owned by this DMM.
const ROW0: Reg = Reg(22);
/// Number of C-rows this DMM actually owns (guards the ragged tail).
const NROWS: Reg = Reg(23);
/// Element coordinates within the current block.
const II: Reg = Reg(24);
const JJ: Reg = Reg(25);

/// Sequential reference: row-major `C = A · B` for `m × m` inputs.
///
/// # Panics
/// Panics if the slices are not `m²` long.
#[must_use]
pub fn matmul_reference(a: &[Word], b: &[Word], m: usize) -> Vec<Word> {
    assert_eq!(a.len(), m * m);
    assert_eq!(b.len(), m * m);
    let mut c = vec![0 as Word; m * m];
    for i in 0..m {
        for k in 0..m {
            let aik = a[i * m + k];
            for j in 0..m {
                c[i * m + j] = c[i * m + j].wrapping_add(aik.wrapping_mul(b[k * m + j]));
            }
        }
    }
    c
}

/// Global layout: `A` at `[0, m²)`, `B` at `[m², 2m²)`, `C` at
/// `[2m², 3m²)`.
fn bases(m: usize) -> (usize, usize, usize) {
    (0, m * m, 2 * m * m)
}

/// The matmul footprint for `m × m` matrices: `A`, `B` and `C` in `3m²`
/// global words. With `d = Some(d)` (the tiled HMM kernel with tile
/// width `tw`) each DMM stages its `rm × m` block of `A`, one `m × tw`
/// tile of `B` and the `rm × tw` output tile in shared memory,
/// `rm = ⌈m/d⌉`; `None` is the single-memory kernel, which ignores `tw`.
#[must_use]
pub fn footprint(m: usize, d: Option<usize>, tw: usize) -> Footprint {
    Footprint::new(
        3 * m * m,
        d.map_or(0, |d| {
            let rm = div_ceil(m, d);
            rm * m + m * tw + rm * tw
        }),
    )
}

/// Build the HMM tiled matmul kernel for `m × m` matrices on `d` DMMs
/// with tile width `tw` (must divide `m`).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn matmul_kernel_hmm(m: usize, d: usize, tw: usize) -> Program {
    assert!(m.is_multiple_of(tw), "tile width must divide m");
    let rm = div_ceil(m, d);
    let (a_base, b_base, c_base) = bases(m);
    // Shared layout.
    let sa = 0; // rm x m block of A (row-major)
    let sb = rm * m; // m x tw tile of B (row-major within the tile)
    let sc = sb + m * tw; // rm x tw tile of C
    let mut a = Asm::new();

    a.mul(ROW0, abi::DMM, rm);
    a.sub(NROWS, m, ROW0);
    a.min(NROWS, NROWS, rm);
    a.max(NROWS, NROWS, 0);

    // Stage this DMM's rows of A: shared[sa + i] = A[row0*m + i] for
    // i < NROWS*m (contiguous global reads).
    a.mul(Reg(26), NROWS, m); // loop bound survives in r26
    strided_loop(&mut a, IDX, T0, abi::LTID, Reg(26), abi::PD, |a| {
        a.mul(T1, ROW0, m);
        a.add(T1, T1, IDX);
        a.ld_global(T1, T1, a_base);
        a.st_shared(IDX, sa, T1);
    });

    // For each column tile t (host-unrolled):
    for t in 0..m / tw {
        let col0 = t * tw;
        // Stage B tile: shared[sb + r*tw + c] = B[r*m + col0 + c].
        strided_loop(&mut a, IDX, T0, abi::LTID, m * tw, abi::PD, |a| {
            a.div(T1, IDX, tw); // r
            a.rem(T2, IDX, tw); // c
            a.mul(T1, T1, m);
            a.add(T1, T1, T2);
            a.ld_global(T1, T1, b_base + col0);
            a.st_shared(IDX, sb, T1);
        });
        a.bar_dmm();

        // Compute the rm x tw output tile: element e = i*tw + j.
        a.mul(Reg(26), NROWS, tw);
        strided_loop(&mut a, IDX, T0, abi::LTID, Reg(26), abi::PD, |a| {
            a.div(II, IDX, tw);
            a.rem(JJ, IDX, tw);
            a.mov(ACC, 0);
            strided_loop(a, KK, T0, 0, m, 1, |a| {
                a.mul(T1, II, m);
                a.add(T1, T1, KK);
                a.ld_shared(T1, T1, sa); // A'[i*m + k]
                a.mul(T2, KK, tw);
                a.add(T2, T2, JJ);
                a.ld_shared(T2, T2, sb); // B'[k*tw + j]
                a.mul(T1, T1, T2);
                a.add(ACC, ACC, T1);
            });
            a.st_shared(IDX, sc, ACC);
        });
        a.bar_dmm();

        // Unstage the C tile: C[(row0+i)*m + col0 + j] = shared[sc + e].
        a.mul(Reg(26), NROWS, tw);
        strided_loop(&mut a, IDX, T0, abi::LTID, Reg(26), abi::PD, |a| {
            a.ld_shared(T1, IDX, sc);
            a.div(II, IDX, tw);
            a.rem(JJ, IDX, tw);
            a.add(T2, ROW0, II);
            a.mul(T2, T2, m);
            a.add(T2, T2, JJ);
            a.st_global(T2, c_base + col0, T1);
        });
        a.bar_dmm();
    }
    a.halt();
    a.finish()
}

/// Build the UMM baseline: every operand read from global memory,
/// element `e = i*m + j` strided over `p` threads.
#[must_use]
pub fn matmul_kernel_umm(m: usize) -> Program {
    let (a_base, b_base, c_base) = bases(m);
    let mut a = Asm::new();
    strided_loop(&mut a, IDX, T0, abi::GID, m * m, abi::P, |a| {
        a.div(II, IDX, m);
        a.rem(JJ, IDX, m);
        a.mov(ACC, 0);
        strided_loop(a, KK, T0, 0, m, 1, |a| {
            a.mul(T1, II, m);
            a.add(T1, T1, KK);
            a.ld_global(T1, T1, a_base); // A[i*m + k]: broadcast within a warp row
            a.mul(T2, KK, m);
            a.add(T2, T2, JJ);
            a.ld_global(T2, T2, b_base); // B[k*m + j]: contiguous within a warp row
            a.mul(T1, T1, T2);
            a.add(ACC, ACC, T1);
        });
        a.st_global(IDX, c_base, ACC);
    });
    a.halt();
    a.finish()
}

/// Stage the `m × m` matrices `A` and `B`, launch `kernel` and read `C`
/// back.
fn run_matmul(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    m: usize,
    need: Footprint,
    kernel: &Kernel,
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (a_base, b_base, c_base) = bases(m);
    run_staged(
        machine,
        need,
        kernel,
        LaunchShape::Even(p),
        |g| {
            g[a_base..b_base].copy_from_slice(a);
            g[b_base..c_base].copy_from_slice(b);
        },
        |g| g[c_base..c_base + m * m].to_vec(),
    )
}

/// Run the tiled HMM matmul of row-major `m × m` matrices with `p`
/// threads (`d | p`) and tile width `tw` (`tw | m`) on an HMM sized by
/// [`footprint`]`(m, Some(d), tw)`.
///
/// # Errors
/// Propagates simulation errors; rejects inconsistent shapes.
pub fn run_matmul_hmm(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    m: usize,
    tw: usize,
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let d = machine.dmms();
    if a.len() != m * m || b.len() != m * m {
        return Err(hmm_machine::SimError::BadLaunch(
            "matmul inputs must be m*m".into(),
        ));
    }
    if p == 0 || !p.is_multiple_of(d) || !m.is_multiple_of(tw) {
        return Err(hmm_machine::SimError::BadLaunch(format!(
            "matmul needs d | p and tw | m (p = {p}, d = {d}, tw = {tw}, m = {m})"
        )));
    }
    let kernel = Kernel::new("matmul-hmm", matmul_kernel_hmm(m, d, tw));
    run_matmul(machine, a, b, m, footprint(m, Some(d), tw), &kernel, p)
}

/// Run the single-memory baseline matmul with `p` threads on a machine
/// sized by [`footprint`]`(m, None, _)`.
///
/// # Errors
/// Propagates simulation errors; rejects inconsistent shapes.
pub fn run_matmul_umm(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    m: usize,
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    if a.len() != m * m || b.len() != m * m {
        return Err(hmm_machine::SimError::BadLaunch(
            "matmul inputs must be m*m".into(),
        ));
    }
    let kernel = Kernel::new("matmul-umm", matmul_kernel_umm(m));
    run_matmul(machine, a, b, m, footprint(m, None, 0), &kernel, p.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    #[test]
    fn reference_identity() {
        let m = 4;
        let mut id = vec![0; m * m];
        for i in 0..m {
            id[i * m + i] = 1;
        }
        let a = random_words(m * m, 1, 10);
        assert_eq!(matmul_reference(&a, &id, m), a);
        assert_eq!(matmul_reference(&id, &a, m), a);
    }

    #[test]
    fn hmm_matmul_matches_reference() {
        for (m, d, tw, p) in [
            (8usize, 2usize, 4usize, 8usize),
            (16, 4, 8, 32),
            (12, 4, 4, 16),
        ] {
            let a = random_words(m * m, m as u64, 20);
            let b = random_words(m * m, (m + 1) as u64, 20);
            let expect = matmul_reference(&a, &b, m);
            let mut machine = footprint(m, Some(d), tw).hmm(d, 4, 8);
            let run = run_matmul_hmm(&mut machine, &a, &b, m, tw, p).unwrap();
            assert_eq!(run.value, expect, "m={m} d={d} tw={tw} p={p}");
        }
    }

    #[test]
    fn umm_matmul_matches_reference() {
        let m = 12;
        let a = random_words(m * m, 5, 20);
        let b = random_words(m * m, 6, 20);
        let expect = matmul_reference(&a, &b, m);
        let mut machine = footprint(m, None, 0).umm(4, 8);
        let run = run_matmul_umm(&mut machine, &a, &b, m, 16).unwrap();
        assert_eq!(run.value, expect);
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut machine = Machine::hmm(2, 4, 4, 1024, 512);
        let a = random_words(16, 1, 5);
        let b = random_words(16, 2, 5);
        assert!(run_matmul_hmm(&mut machine, &a, &b, 4, 3, 4).is_err()); // tw ∤ m
        assert!(run_matmul_hmm(&mut machine, &a, &b, 4, 2, 3).is_err()); // d ∤ p
        assert!(run_matmul_hmm(&mut machine, &a[..8], &b, 4, 2, 4).is_err());
    }

    /// Staging through shared memory compresses the global traffic by
    /// roughly the tile reuse factor, so the HMM wins clearly at real
    /// latencies.
    #[test]
    fn hmm_beats_umm_at_high_latency() {
        let (m, d, tw) = (32usize, 8usize, 8usize);
        let (w, l, p) = (8, 64, 256);
        let a = random_words(m * m, 9, 10);
        let b = random_words(m * m, 10, 10);
        let mut hmm = footprint(m, Some(d), tw).hmm(d, w, l);
        let th = run_matmul_hmm(&mut hmm, &a, &b, m, tw, p).unwrap();
        let mut umm = footprint(m, None, 0).umm(w, l);
        let tu = run_matmul_umm(&mut umm, &a, &b, m, p).unwrap();
        assert_eq!(th.value, tu.value);
        assert!(
            th.report.time * 2 < tu.report.time,
            "HMM {} vs UMM {}",
            th.report.time,
            tu.report.time
        );
        // The traffic-compression mechanism, visible in the stats:
        assert!(th.report.global.requests < tu.report.global.requests / 4);
    }
}
