//! Integration: measured simulation times match the Θ-shapes of Table I.
//!
//! For each algorithm we sweep machine and problem parameters, measure
//! the simulated time units, and envelope-fit them against the matching
//! closed form from `hmm-theory`. A bounded spread across the sweep means
//! the formula captures the measured asymptotics — the reproduction
//! criterion for Table I.

use hmm_algorithms::convolution::{self, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::pram;
use hmm_algorithms::sum::{dmm_umm, hmm_all, run_sum_dmm_umm, run_sum_hmm};
use hmm_theory::{envelope, table1, Params};
use hmm_workloads::random_words;

fn params(n: usize, k: usize, p: usize, w: usize, l: usize, d: usize) -> Params {
    Params { n, k, p, w, l, d }
}

#[test]
fn pram_sum_matches_lemma3_shape() {
    let mut pairs = Vec::new();
    for &n in &[256usize, 1024, 4096] {
        for &p in &[8usize, 64, 256] {
            let input = random_words(n, n as u64, 100);
            let mut m = pram::sum_footprint(n, p).pram(p);
            let run = pram::run_sum(&mut m, &input, p).unwrap();
            pairs.push((run.report.time as f64, table1::sum_pram(n, p)));
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(8.0),
        "PRAM sum spread {:.2} (constant {:.2})",
        fit.spread,
        fit.constant
    );
}

#[test]
fn dmm_umm_sum_matches_lemma5_shape() {
    let mut pairs = Vec::new();
    for &n in &[1usize << 10, 1 << 12, 1 << 14] {
        for &p in &[64usize, 256, 1024] {
            for &l in &[4usize, 32, 128] {
                let w = 16;
                let input = vec![1; n];
                let mut m = dmm_umm::footprint(n).umm(w, l);
                let run = run_sum_dmm_umm(&mut m, &input, p).unwrap();
                pairs.push((
                    run.report.time as f64,
                    table1::sum_dmm_umm(params(n, 1, p, w, l, 1)),
                ));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(10.0),
        "Lemma 5 spread {:.2} (constant {:.2}, ratios {:.2}..{:.2})",
        fit.spread,
        fit.constant,
        fit.min_ratio,
        fit.max_ratio
    );
}

#[test]
fn hmm_sum_matches_theorem7_shape() {
    let mut pairs = Vec::new();
    for &n in &[1usize << 12, 1 << 14] {
        for &(d, p) in &[(4usize, 256usize), (8, 512), (8, 2048)] {
            for &l in &[4usize, 32, 128] {
                let w = 16;
                let input = vec![1; n];
                let mut m = hmm_all::footprint(n, p, d).hmm(d, w, l);
                let run = run_sum_hmm(&mut m, &input, p).unwrap();
                pairs.push((
                    run.report.time as f64,
                    table1::sum_hmm(params(n, 1, p, w, l, d)),
                ));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(10.0),
        "Theorem 7 spread {:.2} (constant {:.2}, ratios {:.2}..{:.2})",
        fit.spread,
        fit.constant,
        fit.min_ratio,
        fit.max_ratio
    );
}

#[test]
fn dmm_umm_convolution_matches_theorem8_shape() {
    let mut pairs = Vec::new();
    for &(n, k) in &[(1usize << 10, 8usize), (1 << 12, 16), (1 << 10, 32)] {
        for &p in &[64usize, 256, 1024] {
            for &l in &[4usize, 64] {
                let w = 16;
                let a = random_words(k, 1, 10);
                let b = random_words(n + k - 1, 2, 10);
                let mut m = convolution::footprint(n, k, None, 0).umm(w, l);
                let run = run_conv_dmm_umm(&mut m, &a, &b, p).unwrap();
                pairs.push((
                    run.report.time as f64,
                    table1::conv_dmm_umm(params(n, k, p.min(n), w, l, 1)),
                ));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(12.0),
        "Theorem 8 spread {:.2} (constant {:.2}, ratios {:.2}..{:.2})",
        fit.spread,
        fit.constant,
        fit.min_ratio,
        fit.max_ratio
    );
}

#[test]
fn hmm_convolution_matches_theorem9_shape() {
    let mut pairs = Vec::new();
    for &(n, k) in &[(1usize << 10, 8usize), (1 << 12, 16), (1 << 10, 32)] {
        for &(d, p) in &[(4usize, 256usize), (8, 512)] {
            for &l in &[4usize, 64] {
                let w = 16;
                let a = random_words(k, 3, 10);
                let b = random_words(n + k - 1, 4, 10);
                let mut m = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
                let run = run_conv_hmm(&mut m, &a, &b, p).unwrap();
                pairs.push((
                    run.report.time as f64,
                    table1::conv_hmm(params(n, k, p, w, l, d)),
                ));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(12.0),
        "Theorem 9 spread {:.2} (constant {:.2}, ratios {:.2}..{:.2})",
        fit.spread,
        fit.constant,
        fit.min_ratio,
        fit.max_ratio
    );
}

#[test]
fn contiguous_access_matches_lemma1_shape() {
    use hmm_algorithms::contiguous::{footprint, run_access, AccessMode};
    let mut pairs = Vec::new();
    for &n in &[1usize << 10, 1 << 13] {
        for &p in &[16usize, 128, 1024] {
            for &l in &[2usize, 32, 256] {
                let w = 16;
                let mut m = footprint(n, 1).umm(w, l);
                let rep = run_access(&mut m, n, p, AccessMode::Read).unwrap();
                pairs.push((rep.time as f64, table1::contiguous(n, p, w, l)));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(8.0),
        "Lemma 1 spread {:.2} (band {:.2}..{:.2})",
        fit.spread,
        fit.min_ratio,
        fit.max_ratio
    );
}
