//! Table II of the paper: the lower bound of the computing time for the
//! sum and the direct convolution on each model.
//!
//! Each bound is the sum of up to four limitations:
//!
//! * **speed-up** — a machine that executes at most `X` useful operations
//!   per time unit needs `ops/X` units (`X = p` on the PRAM, `w` per
//!   memory on the DMM/UMM, `dw` on the HMM);
//! * **bandwidth** — `n` words behind a width-`w` memory need `n/w` units;
//! * **latency** — `p` threads issue at most `p/l` requests per unit, so
//!   reading `R` words needs `Rl/p` units, plus the `l` to finish;
//! * **reduction** — a sum of `m` values sits atop a binary tree with a
//!   root-to-leaf path of `log m` additions, each costing the latency of
//!   the memory where the tree runs (`l` on the DMM/UMM, 1 on the HMM —
//!   the paper's key separation).

use crate::{lg, Params};

/// The four limitation terms of one Table II cell. `None` marks terms
/// that do not apply to a model (the PRAM has no width or latency).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LowerBound {
    /// Speed-up limitation.
    pub speedup: Option<f64>,
    /// Bandwidth limitation.
    pub bandwidth: Option<f64>,
    /// Latency limitation.
    pub latency: Option<f64>,
    /// Reduction limitation.
    pub reduction: Option<f64>,
}

impl LowerBound {
    /// The combined lower bound: the sum of the applicable terms (the
    /// paper states each table entry as this sum).
    #[must_use]
    pub fn total(&self) -> f64 {
        [self.speedup, self.bandwidth, self.latency, self.reduction]
            .into_iter()
            .flatten()
            .sum()
    }

    /// The weakest form: the max of the terms (within 4x of [`LowerBound::total`]).
    #[must_use]
    pub fn max_term(&self) -> f64 {
        [self.speedup, self.bandwidth, self.latency, self.reduction]
            .into_iter()
            .flatten()
            .fold(0.0, f64::max)
    }
}

/// Sum on the PRAM: `Ω(n/p) + Ω(log n)`.
///
/// The reduction term charges at least one addition (`lg` floors its
/// argument at 2), which only a sum of two or more values needs, so the
/// bound holds for `n >= 2`.
#[must_use]
pub fn sum_pram(n: usize, p: usize) -> LowerBound {
    LowerBound {
        speedup: Some(n as f64 / p as f64),
        bandwidth: None,
        latency: None,
        reduction: Some(lg(n)),
    }
}

/// Sum on the DMM/UMM: `Ω(n/p) + Ω(n/w) + Ω(nl/p + l) + Ω(l·log n)`.
///
/// The latency term charges at least one read and the reduction term at
/// least one addition, so the bound holds for `n >= 2`: a sum of one
/// value needs neither (`hmm-cli sum --machine umm --n 1 --l 32` takes 1
/// time unit).
#[must_use]
pub fn sum_dmm_umm(pr: Params) -> LowerBound {
    let Params { n, p, w, l, .. } = pr;
    let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
    LowerBound {
        speedup: Some(nf / pf),
        bandwidth: Some(nf / wf),
        latency: Some(nf * lf / pf + lf),
        reduction: Some(lf * lg(n)),
    }
}

/// Sum on the HMM: `Ω(n/p) + Ω(n/w) + Ω(nl/p + l) + Ω(log n)`.
///
/// As for [`sum_dmm_umm`], the latency and reduction terms assume at
/// least one read and one addition, so the bound holds for `n >= 2`.
#[must_use]
pub fn sum_hmm(pr: Params) -> LowerBound {
    let Params { n, p, w, l, .. } = pr;
    let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
    LowerBound {
        speedup: Some(nf / pf),
        bandwidth: Some(nf / wf),
        latency: Some(nf * lf / pf + lf),
        reduction: Some(lg(n)),
    }
}

/// Convolution on the PRAM: `Ω(nk/p) + Ω(log k)`.
#[must_use]
pub fn conv_pram(n: usize, k: usize, p: usize) -> LowerBound {
    LowerBound {
        speedup: Some((n * k) as f64 / p as f64),
        bandwidth: None,
        latency: None,
        reduction: Some(lg(k)),
    }
}

/// Convolution on the DMM/UMM:
/// `Ω(nk/w) + Ω(n/w) + Ω(nkl/p + l) + Ω(l·log k)`.
///
/// The speed-up term divides by `w`, not `p`: only one warp of `w`
/// threads is dispatched per time unit on a single memory machine
/// (Section VIII).
#[must_use]
pub fn conv_dmm_umm(pr: Params) -> LowerBound {
    let Params { n, k, p, w, l, .. } = pr;
    let (nf, kf, pf, wf, lf) = (n as f64, k as f64, p as f64, w as f64, l as f64);
    LowerBound {
        speedup: Some(nf * kf / wf),
        bandwidth: Some(nf / wf),
        latency: Some(nf * kf * lf / pf + lf),
        reduction: Some(lf * lg(k)),
    }
}

/// Convolution on the HMM:
/// `Ω(nk/(dw)) + Ω(n/w) + Ω(nl/p + l) + Ω(log k)`.
#[must_use]
pub fn conv_hmm(pr: Params) -> LowerBound {
    let Params { n, k, p, w, l, d } = pr;
    let (nf, kf, pf, wf, lf, df) = (n as f64, k as f64, p as f64, w as f64, l as f64, d as f64);
    LowerBound {
        speedup: Some(nf * kf / (df * wf)),
        bandwidth: Some(nf / wf),
        latency: Some(nf * lf / pf + lf),
        reduction: Some(lg(k)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1;

    fn pr(n: usize, k: usize, p: usize, w: usize, l: usize, d: usize) -> Params {
        Params { n, k, p, w, l, d }
    }

    /// The optimality claims of the paper: every Table I upper bound is
    /// within a constant of the matching Table II lower bound, across a
    /// broad grid of parameters.
    #[test]
    fn upper_bounds_match_lower_bounds_within_constants() {
        let mut worst: f64 = 0.0;
        for &n in &[1 << 10, 1 << 14, 1 << 18] {
            for &k in &[4, 32, 128] {
                for &p in &[64, 1024, 16384] {
                    for &l in &[1, 32, 400] {
                        for &(w, d) in &[(16, 4), (32, 16)] {
                            let pr = pr(n, k, p, w, l, d);
                            let pairs = [
                                (table1::sum_dmm_umm(pr), sum_dmm_umm(pr)),
                                (table1::sum_hmm(pr), sum_hmm(pr)),
                                (table1::conv_dmm_umm(pr), conv_dmm_umm(pr)),
                                (table1::conv_hmm(pr), conv_hmm(pr)),
                                (table1::sum_pram(n, p), sum_pram(n, p)),
                                (table1::conv_pram(n, k, p), conv_pram(n, k, p)),
                            ];
                            for (ub, lb) in pairs {
                                // Every individual limitation is below the
                                // upper bound; the upper bound is within a
                                // constant of the combined lower bound.
                                assert!(
                                    lb.max_term() <= ub * 1.0001,
                                    "LB term {} exceeds UB {ub}",
                                    lb.max_term()
                                );
                                worst = worst.max(ub / lb.total());
                            }
                        }
                    }
                }
            }
        }
        // Time-optimality: bounded ratio over the whole grid.
        assert!(worst < 8.0, "worst UB/LB ratio {worst}");
    }

    #[test]
    fn totals_sum_applicable_terms() {
        let lb = sum_pram(1024, 32);
        assert_eq!(lb.total(), 32.0 + 10.0);
        assert_eq!(lb.max_term(), 32.0);
        assert_eq!(LowerBound::default().total(), 0.0);
    }

    #[test]
    fn hmm_reduction_term_drops_the_latency_factor() {
        let pr = pr(1 << 12, 1, 1 << 10, 32, 400, 16);
        let single = sum_dmm_umm(pr).reduction.unwrap();
        let hier = sum_hmm(pr).reduction.unwrap();
        assert_eq!(single, 400.0 * 12.0);
        assert_eq!(hier, 12.0);
    }

    #[test]
    fn conv_speedup_terms_follow_the_dispatch_width() {
        let pr = pr(1 << 10, 16, 1 << 12, 32, 100, 8);
        assert_eq!(conv_pram(pr.n, pr.k, pr.p).speedup.unwrap(), 4.0);
        assert_eq!(conv_dmm_umm(pr).speedup.unwrap(), (1024.0 * 16.0) / 32.0);
        assert_eq!(conv_hmm(pr).speedup.unwrap(), (1024.0 * 16.0) / 256.0);
    }
}
