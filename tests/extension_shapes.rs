//! Integration: the extension algorithms (prefix-sums, offline
//! permutation) reproduce their claimed complexity shapes, in the same
//! envelope-fit style as the Table I tests.

use hmm_algorithms::permutation::{
    self, run_permutation_naive, run_permutation_scheduled, schedule_permutation, transpose_perm,
};
use hmm_algorithms::prefix::{self, run_prefix_dmm_umm, run_prefix_hmm};
use hmm_theory::{envelope, lg};
use hmm_workloads::random_words;

/// Reference [17]'s bound for the single-memory scan:
/// `n/w + nl/p + l·log n`.
fn prefix_dmm_umm_shape(n: usize, p: usize, w: usize, l: usize) -> f64 {
    let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
    nf / wf + nf * lf / pf + lf * lg(n)
}

/// Our HMM scan's bound: `n/w + nl/p + n/p + l + log p + d`.
fn prefix_hmm_shape(n: usize, p: usize, w: usize, l: usize, d: usize) -> f64 {
    let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
    nf / wf + nf * lf / pf + nf / pf + lf + lg(p) + d as f64
}

#[test]
fn prefix_dmm_umm_matches_its_bound() {
    let mut pairs = Vec::new();
    for &n in &[1usize << 10, 1 << 12] {
        for &p in &[64usize, 256, 1024] {
            for &l in &[4usize, 32, 128] {
                let w = 16;
                let input = random_words(n, 1, 50);
                let mut m = prefix::footprint(n, p, None).umm(w, l);
                let run = run_prefix_dmm_umm(&mut m, &input, p).unwrap();
                pairs.push((run.report.time as f64, prefix_dmm_umm_shape(n, p, w, l)));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(10.0),
        "prefix DMM/UMM spread {:.2} (band {:.2}..{:.2})",
        fit.spread,
        fit.min_ratio,
        fit.max_ratio
    );
}

#[test]
fn prefix_hmm_matches_its_bound() {
    let mut pairs = Vec::new();
    for &n in &[1usize << 10, 1 << 12] {
        for &(d, p) in &[(4usize, 128usize), (8, 512)] {
            for &l in &[4usize, 32, 128] {
                let w = 16;
                let input = random_words(n, 2, 50);
                let mut m = prefix::footprint(n, p, Some(d)).hmm(d, w, l);
                let run = run_prefix_hmm(&mut m, &input, p).unwrap();
                pairs.push((run.report.time as f64, prefix_hmm_shape(n, p, w, l, d)));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(10.0),
        "prefix HMM spread {:.2} (band {:.2}..{:.2})",
        fit.spread,
        fit.min_ratio,
        fit.max_ratio
    );
}

/// The scheduled permutation is bandwidth-bound like contiguous access:
/// `O(n/w + nl/p + l)` — while the naive transpose hits `w`-way
/// conflicts, costing about `w`× more pipeline slots.
#[test]
fn scheduled_permutation_is_contiguous_shaped() {
    let w = 8;
    let mut pairs = Vec::new();
    for &m_side in &[16usize, 32] {
        for &p in &[64usize, 256] {
            for &l in &[8usize, 64] {
                let n = m_side * m_side;
                let perm = transpose_perm(m_side);
                let input = random_words(n, 3, 50);
                let schedule = schedule_permutation(&perm, w);
                let mut m = permutation::footprint(n, Some(&schedule)).dmm(w, l);
                let run = run_permutation_scheduled(&mut m, &input, &perm, p).unwrap();
                // Shape: moves cost ~4n/w slots (two table reads, a data
                // read and a write per element) + latency terms.
                let (nf, pf, wf, lf) = (n as f64, p as f64, w as f64, l as f64);
                let shape = nf / wf + nf * lf / pf + lf;
                pairs.push((run.report.time as f64, shape));
            }
        }
    }
    let fit = envelope::fit(&pairs);
    assert!(
        fit.matches_within(10.0),
        "scheduled permutation spread {:.2} (band {:.2}..{:.2})",
        fit.spread,
        fit.min_ratio,
        fit.max_ratio
    );
}

/// Slot-level comparison: on the transpose, the naive kernel's *data*
/// traffic needs ~w times the slots of the scheduled kernel's.
#[test]
fn naive_transpose_pays_w_way_conflicts() {
    let w = 8;
    let m_side = 32;
    let n = m_side * m_side;
    let perm = transpose_perm(m_side);
    let input = random_words(n, 4, 50);
    let p = 128;
    let l = 8;

    let schedule = schedule_permutation(&perm, w);
    let mut dmm = permutation::footprint(n, Some(&schedule)).dmm(w, l);
    let sched = run_permutation_scheduled(&mut dmm, &input, &perm, p).unwrap();
    let mut dmm2 = permutation::footprint(n, None).dmm(w, l);
    let naive = run_permutation_naive(&mut dmm2, &input, &perm, p).unwrap();

    assert_eq!(sched.value, naive.value);
    assert_eq!(naive.report.global.max_slots_per_transaction, w as u64);
    assert_eq!(sched.report.global.max_slots_per_transaction, 1);
    // Naive traffic: 3n requests; n of them (the writes) serialise w-way,
    // so slots ~= 2n/w + n. Scheduled: 4n requests, all conflict-free.
    assert!(
        naive.report.global.slots > 2 * sched.report.global.slots,
        "naive {} slots vs scheduled {}",
        naive.report.global.slots,
        sched.report.global.slots
    );
}
