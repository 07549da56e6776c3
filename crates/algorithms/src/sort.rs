//! Extension: bitonic sorting on the memory machine models.
//!
//! Sorting is the flagship GPU primitive the memory-machine papers build
//! toward, and the bitonic network is the canonical data-oblivious
//! algorithm for SIMD machines — every compare–exchange pattern is fixed
//! in advance, so the whole sort is a sequence of contiguous-ish access
//! phases the models can cost precisely.
//!
//! * [`run_sort_umm`] — the full `½·log²n`-stage network on a single
//!   memory: every stage reads and writes `n` words through the global
//!   pipeline and pays a full barrier, giving
//!   `O((n/w + nl/p + l)·log² n)` time.
//! * [`run_sort_hmm`] — the staged variant every real GPU sort uses: all
//!   stages with exchange distance `j < chunk` (where `chunk = n/d` is one
//!   DMM's slice) run in latency-1 shared memory; only the
//!   `O(log² d)` long-distance stages touch the global pipeline. The
//!   `l·log² n` term collapses to `l·log² d + log² n`.
//!
//! The `sort` rows of `ext_tables` measure the separation.

use hmm_machine::isa::{Reg, Space};
use hmm_machine::kbuild::{if_nonzero, strided_loop};
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimError, SimResult, Word};

use crate::{next_pow2, run_staged, Footprint, Run};

const IDX: Reg = Reg(16);
const C: Reg = Reg(17);
const GI: Reg = Reg(18);
const PARTNER: Reg = Reg(19);
const X: Reg = Reg(20);
const Y: Reg = Reg(21);
const ASC: Reg = Reg(22);
const LO: Reg = Reg(23);
const HI: Reg = Reg(24);
const T0: Reg = Reg(25);
/// `dmm * chunk` for the HMM kernel.
const BASE: Reg = Reg(26);

/// The bitonic-sort footprint for `n` inputs: the input padded to `n2`
/// global words, `n2` a power of two of at least 2. With `d = Some(d)`
/// (the HMM sort on `d` DMMs) `n2` is also at least `2d`, and each DMM
/// stages its `n2/d`-word chunk in shared memory; `None` is the
/// single-memory sort.
#[must_use]
pub fn footprint(n: usize, d: Option<usize>) -> Footprint {
    let n2 = next_pow2(n.max(2)).max(2 * d.unwrap_or(1));
    Footprint::new(n2, d.map_or(0, |d| n2 / d))
}

/// Emit one compare–exchange: indices `GI` (already set) and
/// `PARTNER = GI ^ j`, direction ascending iff `dir_index & k == 0`,
/// data addressed in `space` at `base_addr + index` where the index
/// registers already hold *local* addresses and `dir_index` holds the
/// *global* index that decides the direction.
fn emit_cmpex(a: &mut Asm, space: Space, k: usize, dir_index: Reg) {
    a.ld(X, space, GI, 0);
    a.ld(Y, space, PARTNER, 0);
    a.and(T0, dir_index, k as Word);
    a.seq(ASC, T0, 0);
    a.min(LO, X, Y);
    a.max(HI, X, Y);
    a.sel(X, ASC, LO, HI);
    a.sel(Y, ASC, HI, LO);
    a.st(space, GI, 0, X);
    a.st(space, PARTNER, 0, Y);
}

/// Build the single-memory bitonic sort kernel for `n2` (a power of two)
/// words at global addresses `[0, n2)`.
#[must_use]
pub fn sort_kernel_umm(n2: usize) -> Program {
    assert!(n2.is_power_of_two() && n2 >= 2);
    let mut a = Asm::new();
    let mut k = 2;
    while k <= n2 {
        let mut j = k / 2;
        while j >= 1 {
            strided_loop(&mut a, IDX, C, abi::GID, n2, abi::P, |a| {
                a.mov(GI, IDX);
                a.xor(PARTNER, GI, j as Word);
                a.slt(C, GI, PARTNER);
                if_nonzero(a, C, |a| {
                    emit_cmpex(a, Space::Global, k, GI);
                });
            });
            a.bar_global();
            j /= 2;
        }
        k *= 2;
    }
    a.halt();
    a.finish()
}

/// Emit the local (shared-memory) stages `j = j_hi, j_hi/2, ..., 1` of
/// merge step `k`, operating on this DMM's staged chunk. `BASE` holds the
/// chunk's global offset so the direction bit uses the global index.
fn emit_local_stages(a: &mut Asm, chunk: usize, k: usize, j_hi: usize) {
    let mut j = j_hi;
    while j >= 1 {
        strided_loop(a, IDX, C, abi::LTID, chunk, abi::PD, |a| {
            a.mov(GI, IDX);
            a.xor(PARTNER, GI, j as Word);
            a.slt(C, GI, PARTNER);
            if_nonzero(a, C, |a| {
                a.add(T0, BASE, GI); // global index decides direction
                a.ld(X, Space::Shared, GI, 0);
                a.ld(Y, Space::Shared, PARTNER, 0);
                a.and(T0, T0, k as Word);
                a.seq(ASC, T0, 0);
                a.min(LO, X, Y);
                a.max(HI, X, Y);
                a.sel(X, ASC, LO, HI);
                a.sel(Y, ASC, HI, LO);
                a.st(Space::Shared, GI, 0, X);
                a.st(Space::Shared, PARTNER, 0, Y);
            });
        });
        a.bar_dmm();
        j /= 2;
    }
}

/// Emit stage-in (`to_shared = true`) or stage-out of this DMM's chunk.
fn emit_stage(a: &mut Asm, chunk: usize, to_shared: bool) {
    strided_loop(a, IDX, C, abi::LTID, chunk, abi::PD, |a| {
        a.add(T0, BASE, IDX);
        if to_shared {
            a.ld(X, Space::Global, T0, 0);
            a.st(Space::Shared, IDX, 0, X);
        } else {
            a.ld(X, Space::Shared, IDX, 0);
            a.st(Space::Global, T0, 0, X);
        }
    });
}

/// Build the HMM staged bitonic sort for `n2` words over `d` DMMs.
/// `chunk = n2 / d` must be a power of two ≥ 2 and fit in shared memory.
#[must_use]
pub fn sort_kernel_hmm(n2: usize, d: usize) -> Program {
    assert!(n2.is_power_of_two() && n2 >= 2);
    assert!(n2.is_multiple_of(d), "d must divide n2");
    let chunk = n2 / d;
    assert!(
        chunk.is_power_of_two() && chunk >= 2,
        "chunk must be a power of two"
    );
    let mut a = Asm::new();
    a.mul(BASE, abi::DMM, chunk);

    // Phase A: all merge steps k <= chunk run entirely in shared memory.
    emit_stage(&mut a, chunk, true);
    a.bar_dmm();
    let mut k = 2;
    while k <= chunk {
        emit_local_stages(&mut a, chunk, k, k / 2);
        k *= 2;
    }
    emit_stage(&mut a, chunk, false);
    a.bar_global();

    // Phase B: for k > chunk, long-distance stages (j >= chunk) exchange
    // across DMMs in global memory; the tail (j < chunk) returns to
    // shared memory.
    while k <= n2 {
        let mut j = k / 2;
        while j >= chunk {
            strided_loop(&mut a, IDX, C, abi::GID, n2, abi::P, |a| {
                a.mov(GI, IDX);
                a.xor(PARTNER, GI, j as Word);
                a.slt(C, GI, PARTNER);
                if_nonzero(a, C, |a| {
                    emit_cmpex(a, Space::Global, k, GI);
                });
            });
            a.bar_global();
            j /= 2;
        }
        emit_stage(&mut a, chunk, true);
        a.bar_dmm();
        emit_local_stages(&mut a, chunk, k, chunk / 2);
        emit_stage(&mut a, chunk, false);
        a.bar_global();
        k *= 2;
    }
    a.halt();
    a.finish()
}

/// Pad, launch and read back a sort. Padding uses `Word::MAX` so the
/// original values end up in the first `n` output cells.
fn run_sort(
    machine: &mut Machine,
    input: &[Word],
    p: usize,
    kernel: &Kernel,
    need: Footprint,
) -> SimResult<Run<Vec<Word>>> {
    let n = input.len();
    run_staged(
        machine,
        need,
        kernel,
        LaunchShape::Even(p),
        |g| {
            g[..n].copy_from_slice(input);
            g[n..need.global].fill(Word::MAX);
        },
        |g| g[..n].to_vec(),
    )
}

/// Sort `input` ascending with `p` threads on a single-memory machine
/// sized by [`footprint`]`(n, None)`.
///
/// # Errors
/// Propagates simulation errors.
pub fn run_sort_umm(machine: &mut Machine, input: &[Word], p: usize) -> SimResult<Run<Vec<Word>>> {
    let need = footprint(input.len(), None);
    let kernel = Kernel::new("sort-bitonic-umm", sort_kernel_umm(need.global));
    run_sort(machine, input, p, &kernel, need)
}

/// Sort `input` ascending with `p` threads (`d | p`) on an HMM sized by
/// [`footprint`]`(n, Some(d))`.
///
/// # Errors
/// Propagates simulation errors; rejects `p % d != 0` and a `d` that
/// does not divide the padded length (any `d` not a power of two).
pub fn run_sort_hmm(machine: &mut Machine, input: &[Word], p: usize) -> SimResult<Run<Vec<Word>>> {
    let d = machine.dmms();
    if p == 0 || !p.is_multiple_of(d) {
        return Err(SimError::BadLaunch(format!(
            "HMM sort needs d | p (got p = {p}, d = {d})"
        )));
    }
    let need = footprint(input.len(), Some(d));
    if !need.global.is_multiple_of(d) {
        return Err(SimError::BadLaunch(format!(
            "HMM sort needs d to divide the padded length {} (got d = {d})",
            need.global
        )));
    }
    let kernel = Kernel::new("sort-bitonic-hmm", sort_kernel_hmm(need.global, d));
    run_sort(machine, input, p, &kernel, need)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    fn sorted(mut v: Vec<Word>) -> Vec<Word> {
        v.sort_unstable();
        v
    }

    #[test]
    fn umm_sort_matches_std_sort() {
        for (n, p) in [(16usize, 8usize), (100, 32), (256, 256), (1, 4)] {
            let input = random_words(n, n as u64, 1000);
            let expect = sorted(input.clone());
            let mut m = footprint(n, None).umm(4, 4);
            let run = run_sort_umm(&mut m, &input, p).unwrap();
            assert_eq!(run.value, expect, "n={n} p={p}");
        }
    }

    #[test]
    fn dmm_sort_matches_std_sort() {
        let input = random_words(128, 3, 1000);
        let mut m = Machine::dmm(8, 4, 128);
        let run = run_sort_umm(&mut m, &input, 64).unwrap();
        assert_eq!(run.value, sorted(input));
    }

    #[test]
    fn hmm_sort_matches_std_sort() {
        for (n, d, p) in [
            (64usize, 2usize, 8usize),
            (256, 4, 64),
            (100, 4, 32),
            (512, 8, 128),
        ] {
            let input = random_words(n, (n + d) as u64, 1000);
            let expect = sorted(input.clone());
            let mut m = footprint(n, Some(d)).hmm(d, 4, 8);
            let run = run_sort_hmm(&mut m, &input, p).unwrap();
            assert_eq!(run.value, expect, "n={n} d={d} p={p}");
        }
    }

    /// A DMM count that is not a power of two cannot split the padded
    /// input into equal power-of-two chunks; the runner says so instead
    /// of tripping the kernel builder's assertion.
    #[test]
    fn rejects_dmm_counts_that_do_not_divide_the_padded_length() {
        let mut m = Machine::hmm(3, 4, 4, 256, 256);
        let err = run_sort_hmm(&mut m, &random_words(100, 1, 10), 6).unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)), "{err}");
    }

    #[test]
    fn duplicate_heavy_inputs() {
        let input: Vec<Word> = (0..200).map(|i| i % 5).collect();
        let expect = sorted(input.clone());
        let mut m = Machine::hmm(4, 4, 4, 256, 64);
        let run = run_sort_hmm(&mut m, &input, 32).unwrap();
        assert_eq!(run.value, expect);
    }

    /// The staging payoff: at realistic latency the HMM sort beats the
    /// single-memory sort because only O(log² d) stages cross the global
    /// pipeline.
    #[test]
    fn hmm_sort_beats_umm_sort_at_high_latency() {
        let n = 1 << 10;
        let (d, w, l, p) = (8usize, 8usize, 128usize, 512usize);
        let input = random_words(n, 17, 10_000);
        let expect = sorted(input.clone());

        let mut umm = footprint(n, None).umm(w, l);
        let tu = run_sort_umm(&mut umm, &input, p).unwrap();
        assert_eq!(tu.value, expect);

        let mut hmm = footprint(n, Some(d)).hmm(d, w, l);
        let th = run_sort_hmm(&mut hmm, &input, p).unwrap();
        assert_eq!(th.value, expect);

        assert!(
            th.report.time * 2 < tu.report.time,
            "HMM {} vs UMM {}",
            th.report.time,
            tu.report.time
        );
    }
}
