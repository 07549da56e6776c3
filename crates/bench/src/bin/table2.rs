//! Regenerate **Table II** of the paper: the four lower-bound limitations
//! (speed-up, bandwidth, latency, reduction) per model, checked against
//! the measured time of the matching optimal algorithm.
//!
//! For every sweep point the binary prints the individual limitation
//! terms, their sum, the measured time, and `measured / LB-total` — the
//! empirical optimality constant the paper's theorems say is O(1). It
//! exits with status 1 if any measured time falls below its largest
//! limitation term.
//!
//! The sweep points are independent simulations and fan out over a
//! [`BatchRunner`]; rows print in sweep order afterwards, so output is
//! identical at any thread count.
//!
//! Run with `cargo run --release -p hmm-bench --bin table2`.

use hmm_algorithms::convolution::{self, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::pram;
use hmm_algorithms::sum::{dmm_umm, hmm_all, run_sum_dmm_umm, run_sum_hmm};
use hmm_bench::{dump, header, row, Measurement};
use hmm_core::BatchRunner;
use hmm_theory::table2::LowerBound;
use hmm_theory::{table2, Params};
use hmm_workloads::random_words;

fn params(n: usize, k: usize, p: usize, w: usize, l: usize, d: usize) -> Params {
    Params { n, k, p, w, l, d }
}

fn fmt_term(t: Option<f64>) -> String {
    t.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
}

/// A measured sweep point awaiting printing: model label, parameters,
/// lower-bound terms and the measured simulated time.
struct Point {
    label: &'static str,
    pr: Params,
    lb: LowerBound,
    measured: u64,
}

fn print_point(pt: &Point, valid: &mut bool) -> Measurement {
    *valid &= pt.measured as f64 >= pt.lb.max_term();
    row(&[
        pt.label.to_string(),
        pt.pr.n.to_string(),
        pt.pr.k.to_string(),
        pt.pr.p.to_string(),
        fmt_term(pt.lb.speedup),
        fmt_term(pt.lb.bandwidth),
        fmt_term(pt.lb.latency),
        fmt_term(pt.lb.reduction),
        format!("{:.0}", pt.lb.total()),
        pt.measured.to_string(),
        format!("{:.2}", pt.measured as f64 / pt.lb.total()),
    ]);
    Measurement::new(
        &format!("table2/{}", pt.label),
        pt.pr,
        pt.measured,
        pt.lb.total(),
    )
}

/// The three sum rows (PRAM, DMM/UMM, HMM) for one `(n, p)` point.
fn sum_rows(n: usize, p: usize, w: usize, l: usize, d: usize) -> Vec<Point> {
    let input = random_words(n, 1, 100);

    let pr = pram::run_sum(&mut pram::sum_footprint(n, p).pram(p), &input, p).expect("pram");
    let mut umm = dmm_umm::footprint(n).umm(w, l);
    let du = run_sum_dmm_umm(&mut umm, &input, p).expect("umm");
    let mut hmm = hmm_all::footprint(n, p, d).hmm(d, w, l);
    let hm = run_sum_hmm(&mut hmm, &input, p).expect("hmm");

    vec![
        Point {
            label: "sum/pram",
            pr: params(n, 1, p, 1, 1, 1),
            lb: table2::sum_pram(n, p),
            measured: pr.report.time,
        },
        Point {
            label: "sum/dmm_umm",
            pr: params(n, 1, p, w, l, 1),
            lb: table2::sum_dmm_umm(params(n, 1, p, w, l, 1)),
            measured: du.report.time,
        },
        Point {
            label: "sum/hmm",
            pr: params(n, 1, p, w, l, d),
            lb: table2::sum_hmm(params(n, 1, p, w, l, d)),
            measured: hm.report.time,
        },
    ]
}

/// The three convolution rows for one `(n, k, p)` point.
fn conv_rows(n: usize, k: usize, p: usize, w: usize, l: usize, d: usize) -> Vec<Point> {
    let a = random_words(k, 2, 50);
    let b = random_words(n + k - 1, 3, 50);

    let pr =
        pram::run_convolution(&mut pram::conv_footprint(n, k).pram(p), &a, &b, p).expect("pram");
    let mut umm = convolution::footprint(n, k, None, 0).umm(w, l);
    let du = run_conv_dmm_umm(&mut umm, &a, &b, p).expect("umm");
    let mut hmm = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
    let hm = run_conv_hmm(&mut hmm, &a, &b, p).expect("hmm");

    vec![
        Point {
            label: "conv/pram",
            pr: params(n, k, p.min(n), 1, 1, 1),
            lb: table2::conv_pram(n, k, p.min(n)),
            measured: pr.report.time,
        },
        Point {
            label: "conv/dmm_umm",
            pr: params(n, k, p.min(n), w, l, 1),
            lb: table2::conv_dmm_umm(params(n, k, p.min(n), w, l, 1)),
            measured: du.report.time,
        },
        Point {
            label: "conv/hmm",
            pr: params(n, k, p, w, l, d),
            lb: table2::conv_hmm(params(n, k, p, w, l, d)),
            measured: hm.report.time,
        },
    ]
}

fn main() {
    let (w, l, d) = (32usize, 256usize, 16usize);
    let runner = BatchRunner::new();
    println!("== Table II: lower-bound limitations vs measured time ==");
    println!("machine: w = {w}, l = {l}, d = {d}\n");
    header(&[
        "model",
        "n",
        "k",
        "p",
        "speedup",
        "bandwidth",
        "latency",
        "reduction",
        "LB-total",
        "measured",
        "meas/LB",
    ]);

    let mut ms = Vec::new();
    let mut valid = true;

    let sum_points = vec![(1usize << 14, 2048usize), (1 << 16, 8192)];
    for points in runner.run(sum_points, |(n, p)| sum_rows(n, p, w, l, d)) {
        for pt in &points {
            ms.push(print_point(pt, &mut valid));
        }
    }

    let conv_points = vec![(1usize << 12, 32usize, 2048usize), (1 << 14, 64, 4096)];
    for points in runner.run(conv_points, |(n, k, p)| conv_rows(n, k, p, w, l, d)) {
        for pt in &points {
            ms.push(print_point(pt, &mut valid));
        }
    }

    // Validity: measured time must dominate every individual limitation.
    println!(
        "\n  every measured time >= its largest limitation term: {}",
        if valid { "yes" } else { "NO (check!)" }
    );
    let worst = ms.iter().map(|m| m.ratio).fold(0.0f64, f64::max);
    println!("  worst measured / LB-total (empirical optimality constant): {worst:.2}");

    dump("table2", &ms);
    if !valid {
        std::process::exit(1);
    }
}
