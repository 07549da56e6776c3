//! Direct convolution algorithms (paper Sections VIII–IX).
//!
//! The convolution of `a` (length `k`) and `b` (length `n + k − 1`)
//! produces `c` of length `n` with `c[i] = Σ_j a[j]·b[i+j]`; the paper
//! assumes `k ≪ n` and studies the *direct* (non-FFT) evaluation to
//! expose the memory behaviour of the models.
//!
//! | Submodule | Result | Machine | Time |
//! |---|---|---|---|
//! | [`dmm_umm`] (strided) | Theorem 8, `p ≤ n` | DMM / UMM | `O(nk/w + nkl/p)` |
//! | [`dmm_umm`] (blocked) | Theorem 8, `n < p ≤ nk` | DMM / UMM | `O(nk/w + nkl/p + l·log k)` |
//! | [`hmm`] | Theorem 9 / Corollary 10 | HMM | `O(nk/(dw) + n/w + nl/p + l + log k)` |
//!
//! The HMM wins by a factor of `d` on the compute term: each DMM stages
//! its slice of `b` (plus all of `a`) into shared memory once, so the `nk`
//! multiply-accumulate traffic hits the latency-1 banks instead of the
//! global pipeline.

pub mod dmm_umm;
pub mod hmm;

use hmm_machine::{Kernel, LaunchShape, Machine, SimResult, Word};

use crate::{div_ceil, next_pow2, run_staged, Footprint, Run};

/// The convolution footprint for output length `n` and kernel length
/// `k`. Every kernel keeps `a`, `b` and `c` in `2n + 2k − 1` global
/// words. With `d = Some(d)` (Theorem 9 on `d` DMMs) each DMM stages
/// `a'`, its `m + k − 1` words of `b'` and its `m` words of `c'` in
/// shared memory, `m = ⌈n/d⌉`; `None` is a single-memory kernel. The
/// blocked Theorem 8 kernel keeps `n·next_pow2(q)` partial sums after
/// `c` for its `q` blocks per output; pass `q = 0` for the other two.
#[must_use]
pub fn footprint(n: usize, k: usize, d: Option<usize>, q: usize) -> Footprint {
    let partials = if q == 0 { 0 } else { n * next_pow2(q) };
    Footprint::new(
        (2 * (n + k)).saturating_sub(1) + partials,
        d.map_or(0, |d| (2 * (div_ceil(n, d) + k)).saturating_sub(1)),
    )
}

/// Validate convolution input shapes; returns `(k, n)`.
pub(crate) fn shapes(a: &[Word], b: &[Word]) -> Result<(usize, usize), hmm_machine::SimError> {
    let k = a.len();
    if k == 0 || b.len() < k {
        return Err(hmm_machine::SimError::BadLaunch(
            "convolution needs 0 < k and len(b) = n + k - 1 with n >= 1".into(),
        ));
    }
    Ok((k, b.len() + 1 - k))
}

/// Stage `a` at `[0, k)` and `b` right after it, the layout every
/// convolution kernel shares, launch `kernel` with `p` threads and read
/// `c` back from behind `b`.
pub(crate) fn run_conv(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    need: Footprint,
    kernel: &Kernel,
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (k, c_base) = (a.len(), a.len() + b.len());
    let n = b.len() + 1 - k;
    run_staged(
        machine,
        need,
        kernel,
        LaunchShape::Even(p),
        |g| {
            g[..k].copy_from_slice(a);
            g[k..c_base].copy_from_slice(b);
        },
        |g| g[c_base..c_base + n].to_vec(),
    )
}

pub use dmm_umm::{run_conv_blocked, run_conv_dmm_umm};
pub use hmm::run_conv_hmm;
