//! The GTX580 configuration of Section III: `d = 16` streaming
//! multiprocessors, warps of `w = 32`, global latency of several hundred
//! cycles. Runs the paper's sum and convolution algorithms at that scale
//! and prints the cross-model comparison.
//!
//! ```text
//! cargo run --release --example gtx580
//! ```

use hmm_algorithms::convolution::{self, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::sum::{
    dmm_umm, hmm_all, hmm_single, run_sum_dmm_umm, run_sum_hmm, run_sum_hmm_single_dmm,
};
use hmm_core::presets;
use hmm_workloads::random_words;

fn main() {
    let gtx = presets::gtx580();
    let (d, w, l) = (gtx.d, gtx.w, gtx.l);
    println!("GeForce GTX580 as an HMM: d = {d}, w = {w}, l = {l}");
    println!("(Section III: 16 SMs x 32 cores, 32 banks, latency ~several hundred)\n");

    // --- Sum ----------------------------------------------------------------
    let n = 1 << 16;
    let p = 8192; // 256 resident warps
    let input = random_words(n, 580, 1000);

    let mut umm = gtx.with_global_size(dmm_umm::footprint(n).global).umm();
    let lemma5 = run_sum_dmm_umm(&mut umm, &input, p).unwrap();

    let q = (w * l).min(p); // the paper's choice for the single-DMM algorithm
    let mut hmm1 = gtx
        .with_global_size(hmm_single::footprint(n, q).global)
        .hmm();
    let lemma6 = run_sum_hmm_single_dmm(&mut hmm1, &input, q).unwrap();

    let mut hmm = gtx
        .with_global_size(hmm_all::footprint(n, p, d).global)
        .hmm();
    let theorem7 = run_sum_hmm(&mut hmm, &input, p).unwrap();

    assert_eq!(lemma5.value, theorem7.value);
    assert_eq!(lemma6.value, theorem7.value);
    println!("sum of n = {n} random words, p = {p} threads:");
    println!(
        "  UMM only      (Lemma 5)  : {:>8} time units",
        lemma5.report.time
    );
    println!(
        "  HMM, one DMM  (Lemma 6)  : {:>8} time units",
        lemma6.report.time
    );
    println!(
        "  HMM, all DMMs (Thm 7)    : {:>8} time units",
        theorem7.report.time
    );
    println!(
        "  all-DMM speed-up over single memory: {:.1}x\n",
        lemma5.report.time as f64 / theorem7.report.time as f64
    );

    // --- Convolution ----------------------------------------------------------
    let (n, k) = (1 << 14, 64);
    let a = random_words(k, 1, 100);
    let b = random_words(n + k - 1, 2, 100);

    let need = convolution::footprint(n, k, Some(d), 0);
    let mut umm = gtx.with_global_size(need.global).umm();
    let theorem8 = run_conv_dmm_umm(&mut umm, &a, &b, p).unwrap();

    let mut hmm = gtx
        .with_global_size(need.global)
        .with_shared_size(need.shared)
        .hmm();
    let theorem9 = run_conv_hmm(&mut hmm, &a, &b, p).unwrap();

    assert_eq!(theorem8.value, theorem9.value);
    println!("direct convolution, n = {n}, k = {k}, p = {p} threads:");
    println!(
        "  UMM only (Thm 8)         : {:>8} time units",
        theorem8.report.time
    );
    println!(
        "  HMM      (Thm 9)         : {:>8} time units",
        theorem9.report.time
    );
    println!(
        "  HMM speed-up: {:.1}x (theory predicts up to d = {d}x on the compute term)",
        theorem8.report.time as f64 / theorem9.report.time as f64
    );
}
