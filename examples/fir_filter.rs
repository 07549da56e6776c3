//! FIR filtering on the HMM — the workload the paper's introduction
//! motivates (GPUs accelerating signal processing), expressed as the
//! direct convolution of Theorem 9.
//!
//! A noisy integer sensor signal is smoothed with a moving-average filter
//! and the same filtering is timed on the UMM (Theorem 8, all traffic
//! through global memory) and on the HMM (Theorem 9, staged through the
//! per-DMM shared memories).
//!
//! ```text
//! cargo run --release --example fir_filter
//! ```

use hmm_algorithms::convolution::{footprint, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::reference;
use hmm_machine::Word;
use hmm_workloads::{moving_average_taps, random_words, sine_wave};

fn main() {
    // A sine wave with additive noise, long enough to be GPU-worthy.
    let n = 1 << 12;
    let k = 16; // filter taps
    let clean = sine_wave(n + k - 1, 6.0, 1000.0);
    let noise = random_words(n + k - 1, 2026, 150);
    let signal: Vec<Word> = clean.iter().zip(&noise).map(|(c, e)| c + e).collect();
    let taps = moving_average_taps(k);

    // Ground truth on the sequential RAM.
    let expect = reference::convolution(&taps, &signal);
    println!(
        "FIR smoothing: n = {n} samples, k = {k} taps, {} sequential ops",
        expect.ops
    );

    // Machine parameters in the GTX580 ballpark (scaled down for a demo).
    let (d, w, l, p) = (8, 16, 128, 1024);

    let mut umm = footprint(n, k, None, 0).umm(w, l);
    let t8 = run_conv_dmm_umm(&mut umm, &taps, &signal, p).unwrap();
    assert_eq!(t8.value, expect.value);

    let mut hmm = footprint(n, k, Some(d), 0).hmm(d, w, l);
    let t9 = run_conv_hmm(&mut hmm, &taps, &signal, p).unwrap();
    assert_eq!(t9.value, expect.value);

    println!("\n                      time units   global slots   shared slots");
    println!(
        "UMM  (Theorem 8)    {:>10}   {:>12}   {:>12}",
        t8.report.time, t8.report.global.slots, t8.report.shared.slots
    );
    println!(
        "HMM  (Theorem 9)    {:>10}   {:>12}   {:>12}",
        t9.report.time, t9.report.global.slots, t9.report.shared.slots
    );
    println!(
        "\nHMM speed-up: {:.2}x (d = {d} shared memories absorb the {}-tap MAC stream)",
        t8.report.time as f64 / t9.report.time as f64,
        k
    );

    // Smoothing sanity: the filtered signal has lower "noise energy"
    // against the k-scaled clean signal than the raw one.
    let clean_conv = reference::convolution(&taps, &clean).value;
    let err_filtered: i128 = t9
        .value
        .iter()
        .zip(&clean_conv)
        .map(|(a, b)| {
            let e = i128::from(a - b);
            e * e
        })
        .sum();
    let err_raw: i128 = signal[..n]
        .iter()
        .zip(&clean[..n])
        .map(|(a, b)| {
            let e = i128::from((a - b) * k as Word);
            e * e
        })
        .sum();
    println!(
        "noise energy: raw {err_raw}  ->  filtered {err_filtered}  ({}x reduction)",
        err_raw / err_filtered.max(1)
    );
    assert!(err_filtered < err_raw);
}
