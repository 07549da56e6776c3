//! Extension: parallel prefix-sums on the memory machine models.
//!
//! The paper's introduction cites its companion result (reference \[17\],
//! Nakano, ICA3PP 2012) that the prefix-sums of `n` numbers take
//! `O(n/w + nl/p + l·log n)` time units on the DMM/UMM. We reproduce an
//! algorithm with that bound and add the natural HMM counterpart, which —
//! exactly like Theorem 7 for the sum — moves the tree phases into the
//! latency-1 shared memories:
//!
//! * [`run_prefix_dmm_umm`] — a Blelloch scan over *contiguously stored
//!   level arrays*: level `m+1` holds the pairwise sums of level `m`, so
//!   every read/write stream of every phase is contiguous (stride ≤ 2) and
//!   each of the `2·log n` levels costs `O(n_m/w + n_m·l/p + l)`. Total:
//!   `O(n/w + nl/p + l·log n)` — the bound of \[17\].
//! * [`run_prefix_hmm`] — each DMM stages a contiguous chunk into shared
//!   memory, scans it there (per-thread sequential sub-blocks in an
//!   odd-stride skewed layout that avoids bank conflicts, plus a
//!   Hillis–Steele scan over the block totals), and only the `d` chunk
//!   totals cross the global pipeline:
//!   `O(n/w + nl/p + l + n/p + log p + d)`.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::strided_loop;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::{div_ceil, next_pow2, run_staged, Footprint, Run};

const IDX: Reg = Reg(16);
const ACC: Reg = Reg(17);
const T0: Reg = Reg(18);
const T1: Reg = Reg(19);
const T2: Reg = Reg(20);
const T3: Reg = Reg(21);
/// `dmm * chunk` in the HMM kernel.
const BASE: Reg = Reg(22);
/// Guarded element count of this DMM's chunk.
const LIM: Reg = Reg(23);
/// Per-thread sub-block base in shared memory.
const SBASE: Reg = Reg(24);

/// The prefix-sums footprint for `n` inputs and `p` threads.
///
/// * `d = None` — the single-memory scan: the input padded to
///   `n2 = next_pow2(n)` words plus its level arrays, `3·n2 − 1` global
///   words in all.
/// * `d = Some(d)` — the HMM scan on `d` DMMs: input, output and the `d`
///   chunk totals in `2n + d` global words. Each DMM's shared memory holds
///   its skew-padded chunk, the `next_pow2(p/d)` block totals, the `d`
///   staged chunk totals and the cross-DMM offset cell.
#[must_use]
pub fn footprint(n: usize, p: usize, d: Option<usize>) -> Footprint {
    match d {
        None => Footprint::new(3 * next_pow2(n) - 1, 0),
        Some(d) => {
            let pd = p / d;
            Footprint::new(
                2 * n + d,
                pd * (sub_block(div_ceil(n, d), pd) + 1) + next_pow2(pd) + d + 1,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// DMM / UMM: contiguous-level Blelloch scan (reference [17]'s bound)
// ---------------------------------------------------------------------------

/// Memory layout of the single-memory scan: input at `[0, n2)` (zero
/// padded), level arrays at `[n2, 3·n2)` — level 0 at `n2` (size `n2`),
/// level 1 after it (size `n2/2`), and so on.
fn level_bases(n2: usize) -> Vec<usize> {
    let mut bases = Vec::new();
    let mut base = n2;
    let mut size = n2;
    while size >= 1 {
        bases.push(base);
        base += size;
        size /= 2;
    }
    bases
}

/// Build the `O(n/w + nl/p + l·log n)` scan kernel for `n2 = next_pow2(n)`
/// padded inputs. The inclusive prefix sums end up in the level-0 buffer
/// at `[n2, 2·n2)`.
#[must_use]
pub fn prefix_kernel_dmm_umm(n2: usize) -> Program {
    assert!(n2.is_power_of_two());
    let bases = level_bases(n2);
    let levels = bases.len() - 1; // log2(n2)
    let mut a = Asm::new();

    // Copy input into the level-0 buffer (contiguous).
    strided_loop(&mut a, IDX, T0, abi::GID, n2, abi::P, |a| {
        a.ld_global(T1, IDX, 0);
        a.st_global(IDX, bases[0], T1);
    });
    a.bar_global();

    // Upsweep: L_{m+1}[j] = L_m[2j] + L_m[2j+1].
    for m in 0..levels {
        let len = n2 >> (m + 1);
        strided_loop(&mut a, IDX, T0, abi::GID, len, abi::P, |a| {
            a.add(T1, IDX, IDX); // 2j
            a.ld_global(T2, T1, bases[m]);
            a.ld_global(T3, T1, bases[m] + 1);
            a.add(T2, T2, T3);
            a.st_global(IDX, bases[m + 1], T2);
        });
        a.bar_global();
    }

    // Downsweep: replace the top with 0, then
    //   E_m[2j]   = E_{m+1}[j]
    //   E_m[2j+1] = E_{m+1}[j] + L_m[2j]   (read both, then write both).
    {
        let skip = a.label();
        a.brnz(abi::GID, skip);
        a.st_global(bases[levels], 0, 0);
        a.bind(skip);
        a.bar_global();
    }
    for m in (0..levels).rev() {
        let len = n2 >> (m + 1);
        strided_loop(&mut a, IDX, T0, abi::GID, len, abi::P, |a| {
            a.ld_global(T2, IDX, bases[m + 1]); // E_{m+1}[j]
            a.add(T1, IDX, IDX); // 2j
            a.ld_global(T3, T1, bases[m]); // L_m[2j]
            a.st_global(T1, bases[m], T2); // E_m[2j]
            a.add(T2, T2, T3);
            a.st_global(T1, bases[m] + 1, T2); // E_m[2j+1]
        });
        a.bar_global();
    }

    // Inclusive = exclusive + input (both streams contiguous).
    strided_loop(&mut a, IDX, T0, abi::GID, n2, abi::P, |a| {
        a.ld_global(T1, IDX, bases[0]);
        a.ld_global(T2, IDX, 0);
        a.add(T1, T1, T2);
        a.st_global(IDX, bases[0], T1);
    });
    a.halt();
    a.finish()
}

/// Run the single-memory prefix sums of `input` with `p` threads on a
/// machine sized by [`footprint`]`(n, p, None)`.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_prefix_dmm_umm(
    machine: &mut Machine,
    input: &[Word],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let n = input.len();
    let n2 = next_pow2(n);
    let kernel = Kernel::new("prefix-dmm-umm", prefix_kernel_dmm_umm(n2));
    run_staged(
        machine,
        footprint(n, p, None),
        &kernel,
        LaunchShape::Even(p),
        |g| g[..n].copy_from_slice(input),
        |g| g[n2..n2 + n].to_vec(),
    )
}

// ---------------------------------------------------------------------------
// HMM: shared-memory staged scan
// ---------------------------------------------------------------------------

/// Per-thread sub-block length: `⌈chunk/pd⌉` rounded up to even so that
/// the skewed stride `b + 1` is odd and hits every bank of a
/// power-of-two-width shared memory.
fn sub_block(chunk: usize, pd: usize) -> usize {
    let b = div_ceil(chunk.max(1), pd.max(1));
    b + (b & 1)
}

/// Build the HMM prefix-sums kernel.
///
/// Global layout: input at `[0, n)`, output at `[n, 2n)`, per-DMM chunk
/// totals at `[2n, 2n + d)` (host-zeroed). Requires `d | p`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn prefix_kernel_hmm(n: usize, p: usize, d: usize) -> Program {
    assert!(p.is_multiple_of(d), "HMM prefix kernel expects d | p");
    let pd = p / d;
    let pd2 = next_pow2(pd);
    let chunk = div_ceil(n, d);
    let b = sub_block(chunk, pd);
    let data = 0usize; // shared: skewed chunk, pd*(b+1) words
    let totals = pd * (b + 1); // shared: pd2 block totals
    let dscratch = totals + pd2; // shared: d staged totals + offset cell
    let out_base = n; // global
    let taux = 2 * n; // global: d chunk totals
    let mut a = Asm::new();

    a.mul(BASE, abi::DMM, chunk);
    a.sub(LIM, n, BASE);
    a.min(LIM, LIM, chunk);
    a.max(LIM, LIM, 0);

    // Stage: shared[data + i + i/b] = G[base + i] for i < LIM (contiguous
    // global reads; the skewed shared writes cost at most O(1) extra
    // slots per warp).
    strided_loop(&mut a, IDX, T0, abi::LTID, LIM, abi::PD, |a| {
        a.add(T1, BASE, IDX);
        a.ld_global(T1, T1, 0);
        a.div(T2, IDX, b);
        a.add(T2, T2, IDX); // i + i/b
        a.st_shared(T2, data, T1);
    });
    a.bar_dmm();

    // Per-thread sequential scan of sub-block [ltid*b, ltid*b + b) in the
    // skewed layout (stride b+1 is odd: conflict-free across the warp).
    a.mul(SBASE, abi::LTID, b + 1);
    a.mul(T3, abi::LTID, b); // first chunk index of the sub-block
    a.mov(ACC, 0);
    a.mov(IDX, 0);
    let top = a.here();
    let done = a.label();
    a.slt(T0, IDX, b);
    a.brz(T0, done);
    a.add(T0, T3, IDX);
    a.slt(T0, T0, LIM); // stop at the chunk's guarded end
    a.brz(T0, done);
    a.add(T1, SBASE, IDX);
    a.ld_shared(T2, T1, data);
    a.add(ACC, ACC, T2);
    a.st_shared(T1, data, ACC);
    a.add(IDX, IDX, 1);
    a.jmp(top);
    a.bind(done);
    // Publish the block total (0 for blocks past the chunk end).
    a.st_shared(abi::LTID, totals, ACC);
    if pd2 > pd {
        let skip = a.label();
        a.slt(T0, abi::LTID, pd2 - pd);
        a.brz(T0, skip);
        a.st_shared(abi::LTID, totals + pd, 0);
        a.bind(skip);
    }
    a.bar_dmm();

    // Hillis–Steele inclusive scan over the pd2 block totals: log rounds,
    // each a read, a barrier, a guarded add, a barrier.
    let mut h = 1;
    while h < pd2 {
        let skip = a.label();
        a.sle(T0, h, abi::LTID); // T0 = (ltid >= h)
        a.mov(T2, 0);
        a.brz(T0, skip);
        a.sub(T1, abi::LTID, h);
        a.ld_shared(T2, T1, totals);
        a.bind(skip);
        a.bar_dmm();
        let skip2 = a.label();
        a.brz(T0, skip2);
        a.ld_shared(T1, abi::LTID, totals);
        a.add(T1, T1, T2);
        a.st_shared(abi::LTID, totals, T1);
        a.bind(skip2);
        a.bar_dmm();
        h *= 2;
    }

    // Thread 0 publishes this DMM's chunk total globally; global barrier.
    {
        let skip = a.label();
        a.brnz(abi::LTID, skip);
        a.ld_shared(T1, totals + pd - 1, 0);
        a.st_global(abi::DMM, taux, T1);
        a.bind(skip);
        a.bar_global();
    }

    // Cross-DMM offset: threads ltid < d stage the d totals into shared;
    // thread 0 then serially sums those with index < dmm (d is small) and
    // parks the offset at dscratch + d.
    strided_loop(&mut a, IDX, T0, abi::LTID, d, abi::PD, |a| {
        a.ld_global(T1, IDX, taux);
        a.st_shared(IDX, dscratch, T1);
    });
    a.bar_dmm();
    {
        let skip = a.label();
        a.brnz(abi::LTID, skip);
        a.mov(ACC, 0);
        strided_loop(&mut a, IDX, T0, 0, abi::DMM, 1, |a| {
            a.ld_shared(T1, IDX, dscratch);
            a.add(ACC, ACC, T1);
        });
        a.st_shared(dscratch + d, 0, ACC);
        a.bind(skip);
        a.bar_dmm();
    }

    // Unstage: out[base + i] = scanned[i] + block_offset(i/b) + dmm_offset,
    // striding i over the whole chunk (contiguous global writes).
    strided_loop(&mut a, IDX, T0, abi::LTID, LIM, abi::PD, |a| {
        a.div(T2, IDX, b);
        a.add(T1, T2, IDX); // skewed address i + i/b
        a.ld_shared(T1, T1, data);
        a.mov(T3, 0);
        {
            let skip = a.label();
            a.brz(T2, skip); // block 0 has no intra-chunk offset
            a.sub(T2, T2, 1);
            a.ld_shared(T3, T2, totals);
            a.bind(skip);
        }
        a.add(T1, T1, T3);
        a.ld_shared(T3, dscratch + d, 0);
        a.add(T1, T1, T3);
        a.add(T2, BASE, IDX);
        a.st_global(T2, out_base, T1);
    });
    a.halt();
    a.finish()
}

/// Run the HMM prefix sums of `input` with `p` threads evenly over the
/// `d` DMMs (`d | p`) of an HMM sized by [`footprint`]`(n, p, Some(d))`.
///
/// # Errors
/// Propagates simulation errors; rejects `p % d != 0`.
pub fn run_prefix_hmm(
    machine: &mut Machine,
    input: &[Word],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let d = machine.dmms();
    if p == 0 || !p.is_multiple_of(d) {
        return Err(hmm_machine::SimError::BadLaunch(format!(
            "HMM prefix sums need d | p (got p = {p}, d = {d})"
        )));
    }
    let n = input.len();
    let kernel = Kernel::new("prefix-hmm", prefix_kernel_hmm(n, p, d));
    run_staged(
        machine,
        footprint(n, p, Some(d)),
        &kernel,
        LaunchShape::Even(p),
        |g| g[..n].copy_from_slice(input),
        |g| g[n..2 * n].to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    #[test]
    fn dmm_umm_prefix_matches_reference() {
        let input = random_words(300, 21, 100);
        let expect = reference::prefix_sums(&input).value;
        for p in [4usize, 32, 256] {
            let mut m = Machine::umm(4, 8, 3 * 512);
            let run = run_prefix_dmm_umm(&mut m, &input, p).unwrap();
            assert_eq!(run.value, expect, "p = {p}");
            let mut m = Machine::dmm(4, 8, 3 * 512);
            let run = run_prefix_dmm_umm(&mut m, &input, p).unwrap();
            assert_eq!(run.value, expect, "p = {p} (dmm)");
        }
    }

    #[test]
    fn hmm_prefix_matches_reference() {
        for (n, d, p) in [
            (256usize, 2usize, 8usize),
            (300, 4, 16),
            (1000, 4, 64),
            (64, 8, 32),
        ] {
            let input = random_words(n, n as u64, 100);
            let expect = reference::prefix_sums(&input).value;
            let mut m = footprint(n, p, Some(d)).hmm(d, 4, 8);
            let run = run_prefix_hmm(&mut m, &input, p).unwrap();
            assert_eq!(run.value, expect, "n={n} d={d} p={p}");
        }
    }

    #[test]
    fn single_element_and_all_zeros() {
        let mut m = Machine::umm(4, 2, 16);
        assert_eq!(run_prefix_dmm_umm(&mut m, &[5], 4).unwrap().value, vec![5]);
        let mut m = Machine::hmm(2, 4, 2, 64, 64);
        assert_eq!(
            run_prefix_hmm(&mut m, &[0, 0, 0, 0], 4).unwrap().value,
            vec![0; 4]
        );
    }

    /// The HMM variant pays the latency additively, the single-memory
    /// variant per tree level — the same separation as the sum.
    #[test]
    fn hmm_prefix_is_latency_robust() {
        let n = 1 << 12;
        let input = random_words(n, 3, 50);
        let (d, w, p) = (8usize, 8usize, 512usize);
        let l = 256;
        let mut umm = footprint(n, p, None).umm(w, l);
        let tu = run_prefix_dmm_umm(&mut umm, &input, p).unwrap();
        let mut hmm = footprint(n, p, Some(d)).hmm(d, w, l);
        let th = run_prefix_hmm(&mut hmm, &input, p).unwrap();
        assert_eq!(tu.value, th.value);
        assert!(
            th.report.time < tu.report.time,
            "HMM {} vs UMM {}",
            th.report.time,
            tu.report.time
        );
    }
}
