//! Integration: Table II — measured times respect every lower bound and
//! sit within a constant of it (observed time-optimality).
//!
//! For each algorithm and sweep point we check
//! `LB.max_term() ≤ measured ≤ C · LB.total()`: the left inequality
//! validates the bound derivations against the executable model, the
//! right one is the paper's optimality theorem made empirical.

use hmm_algorithms::convolution::{self, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::pram;
use hmm_algorithms::sum::{dmm_umm, hmm_all, run_sum_dmm_umm, run_sum_hmm};
use hmm_theory::{table2, Params};
use hmm_workloads::random_words;

fn params(n: usize, k: usize, p: usize, w: usize, l: usize, d: usize) -> Params {
    Params { n, k, p, w, l, d }
}

/// The optimality constant we certify across all sweeps. The paper proves
/// O(1); our engine's measured constant stays well under this.
const C: f64 = 30.0;

#[test]
fn pram_sum_within_lower_bound_envelope() {
    for &(n, p) in &[(1024usize, 32usize), (4096, 256), (256, 256)] {
        let input = random_words(n, 9, 50);
        let mut m = pram::sum_footprint(n, p).pram(p);
        let run = pram::run_sum(&mut m, &input, p).unwrap();
        let lb = table2::sum_pram(n, p);
        let t = run.report.time as f64;
        assert!(t >= lb.max_term(), "n={n} p={p}: {t} < {}", lb.max_term());
        assert!(t <= C * lb.total(), "n={n} p={p}: {t} > C*{}", lb.total());
    }
}

#[test]
fn dmm_umm_sum_within_lower_bound_envelope() {
    for &(n, p, l) in &[
        (1usize << 12, 256usize, 16usize),
        (1 << 14, 1024, 64),
        (1 << 10, 64, 4),
    ] {
        let w = 16;
        let input = vec![1; n];
        let mut m = dmm_umm::footprint(n).umm(w, l);
        let t = run_sum_dmm_umm(&mut m, &input, p).unwrap().report.time as f64;
        let lb = table2::sum_dmm_umm(params(n, 1, p, w, l, 1));
        assert!(t >= lb.max_term(), "{t} < LB {}", lb.max_term());
        assert!(t <= C * lb.total(), "{t} > C * {}", lb.total());
    }
}

#[test]
fn hmm_sum_within_lower_bound_envelope() {
    for &(n, p, l, d) in &[
        (1usize << 12, 256usize, 16usize, 4usize),
        (1 << 14, 2048, 128, 8),
        (1 << 12, 512, 64, 16),
    ] {
        let w = 16;
        let input = vec![1; n];
        let mut m = hmm_all::footprint(n, p, d).hmm(d, w, l);
        let t = run_sum_hmm(&mut m, &input, p).unwrap().report.time as f64;
        let lb = table2::sum_hmm(params(n, 1, p, w, l, d));
        assert!(t >= lb.max_term(), "{t} < LB {}", lb.max_term());
        assert!(t <= C * lb.total(), "{t} > C * {}", lb.total());
    }
}

#[test]
fn dmm_umm_convolution_within_lower_bound_envelope() {
    for &(n, k, p, l) in &[
        (1usize << 10, 8usize, 256usize, 16usize),
        (1 << 11, 16, 1024, 64),
    ] {
        let w = 16;
        let a = random_words(k, 5, 10);
        let b = random_words(n + k - 1, 6, 10);
        let mut m = convolution::footprint(n, k, None, 0).umm(w, l);
        let t = run_conv_dmm_umm(&mut m, &a, &b, p).unwrap().report.time as f64;
        let lb = table2::conv_dmm_umm(params(n, k, p.min(n), w, l, 1));
        assert!(t >= lb.max_term(), "{t} < LB {}", lb.max_term());
        assert!(t <= C * lb.total(), "{t} > C * {}", lb.total());
    }
}

#[test]
fn hmm_convolution_within_lower_bound_envelope() {
    for &(n, k, p, l, d) in &[
        (1usize << 10, 8usize, 256usize, 16usize, 4usize),
        (1 << 11, 16, 512, 64, 8),
        (1 << 10, 32, 512, 32, 8),
    ] {
        let w = 16;
        let a = random_words(k, 7, 10);
        let b = random_words(n + k - 1, 8, 10);
        let mut m = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
        let t = run_conv_hmm(&mut m, &a, &b, p).unwrap().report.time as f64;
        let lb = table2::conv_hmm(params(n, k, p, w, l, d));
        assert!(t >= lb.max_term(), "{t} < LB {}", lb.max_term());
        assert!(t <= C * lb.total(), "{t} > C * {}", lb.total());
    }
}
