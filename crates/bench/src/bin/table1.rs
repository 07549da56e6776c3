//! Regenerate **Table I** of the paper: the computing time of the sum and
//! the direct convolution on the Sequential RAM, the PRAM, the DMM/UMM
//! and the HMM — measured in simulated time units and compared against
//! the closed-form Θ-shapes.
//!
//! The grid points are independent simulations, so they fan out over a
//! [`BatchRunner`]; results come back in grid order, making the printed
//! table and the JSON dump identical at any thread count.
//!
//! Run with `cargo run --release -p hmm-bench --bin table1`.
//!
//! With `--profile`, instead of the full grid a single representative
//! point per row runs with cycle accounting on, printing the measured
//! stall breakdown next to the Table II lower bound and its dominant
//! regime term — the measured counterpart of the paper's optimality
//! argument.

use hmm_algorithms::convolution::{self, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::sum::{dmm_umm, hmm_all, run_sum_dmm_umm, run_sum_hmm};
use hmm_algorithms::{pram, reference};
use hmm_bench::{dump, header, row, summarise, Measurement};
use hmm_core::BatchRunner;
use hmm_machine::{LaunchProfile, StallCategory};
use hmm_theory::{regimes, table1, table2, Params};
use hmm_workloads::random_words;

fn params(n: usize, k: usize, p: usize, w: usize, l: usize, d: usize) -> Params {
    Params { n, k, p, w, l, d }
}

/// One sum-row grid point: returns the printable row and its measurements.
fn sum_point(n: usize, p: usize, w: usize, l: usize, d: usize) -> (Vec<String>, Vec<Measurement>) {
    let input = random_words(n, n as u64 ^ p as u64, 100);
    let seq = reference::sum(&input);

    let pr = pram::run_sum(&mut pram::sum_footprint(n, p).pram(p), &input, p).expect("pram sum");
    let pram_pred = table1::sum_pram(n, p);

    let mut umm = dmm_umm::footprint(n).umm(w, l);
    let du = run_sum_dmm_umm(&mut umm, &input, p).expect("umm sum");
    assert_eq!(du.value, seq.value);
    let du_pred = table1::sum_dmm_umm(params(n, 1, p, w, l, 1));

    let mut hmm = hmm_all::footprint(n, p, d).hmm(d, w, l);
    let hm = run_sum_hmm(&mut hmm, &input, p).expect("hmm sum");
    assert_eq!(hm.value, seq.value);
    let hm_pred = table1::sum_hmm(params(n, 1, p, w, l, d));

    let cells = vec![
        n.to_string(),
        p.to_string(),
        seq.ops.to_string(),
        pr.report.time.to_string(),
        format!("{pram_pred:.0}"),
        du.report.time.to_string(),
        format!("{du_pred:.0}"),
        hm.report.time.to_string(),
        format!("{hm_pred:.0}"),
    ];
    let ms = vec![
        Measurement::new(
            "table1/sum/pram",
            params(n, 1, p, 1, 1, 1),
            pr.report.time,
            pram_pred,
        ),
        Measurement::new(
            "table1/sum/dmm_umm",
            params(n, 1, p, w, l, 1),
            du.report.time,
            du_pred,
        ),
        Measurement::new(
            "table1/sum/hmm",
            params(n, 1, p, w, l, d),
            hm.report.time,
            hm_pred,
        ),
    ];
    (cells, ms)
}

/// One convolution-row grid point.
fn conv_point(
    n: usize,
    k: usize,
    p: usize,
    w: usize,
    l: usize,
    d: usize,
) -> (Vec<String>, Vec<Measurement>) {
    let a = random_words(k, k as u64, 50);
    let b = random_words(n + k - 1, n as u64, 50);
    let seq = reference::convolution(&a, &b);

    let pr = pram::run_convolution(&mut pram::conv_footprint(n, k).pram(p), &a, &b, p)
        .expect("pram conv");
    assert_eq!(pr.value, seq.value);
    let pram_pred = table1::conv_pram(n, k, p.min(n));

    let mut umm = convolution::footprint(n, k, None, 0).umm(w, l);
    let du = run_conv_dmm_umm(&mut umm, &a, &b, p).expect("umm conv");
    assert_eq!(du.value, seq.value);
    let du_pred = table1::conv_dmm_umm(params(n, k, p.min(n), w, l, 1));

    let mut hmm = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
    let hm = run_conv_hmm(&mut hmm, &a, &b, p).expect("hmm conv");
    assert_eq!(hm.value, seq.value);
    let hm_pred = table1::conv_hmm(params(n, k, p, w, l, d));

    let cells = vec![
        n.to_string(),
        k.to_string(),
        p.to_string(),
        seq.ops.to_string(),
        pr.report.time.to_string(),
        format!("{pram_pred:.0}"),
        du.report.time.to_string(),
        format!("{du_pred:.0}"),
        hm.report.time.to_string(),
        format!("{hm_pred:.0}"),
    ];
    let ms = vec![
        Measurement::new(
            "table1/conv/pram",
            params(n, k, p.min(n), 1, 1, 1),
            pr.report.time,
            pram_pred,
        ),
        Measurement::new(
            "table1/conv/dmm_umm",
            params(n, k, p.min(n), w, l, 1),
            du.report.time,
            du_pred,
        ),
        Measurement::new(
            "table1/conv/hmm",
            params(n, k, p, w, l, d),
            hm.report.time,
            hm_pred,
        ),
    ];
    (cells, ms)
}

/// One-line measured breakdown: every category's share of threads×time.
fn breakdown_line(p: &LaunchProfile) -> String {
    StallCategory::ALL
        .iter()
        .map(|&cat| format!("{} {:.1}%", cat.name(), 100.0 * p.fraction(cat)))
        .collect::<Vec<_>>()
        .join("  ")
}

fn print_profiles(tag: &str, time: u64, lb: &table2::LowerBound, profiles: &[LaunchProfile]) {
    println!(
        "{tag}: measured {time} units | lower bound {:.0} (dominant regime: {:?})",
        lb.total(),
        regimes::dominant(lb)
    );
    for p in profiles {
        println!("  launch {:>12}: {}", p.label, breakdown_line(p));
        assert!(p.is_conserved(), "profile lost thread-cycles");
    }
    println!();
}

/// `--profile`: one representative point per Table I row, run with the
/// cycle-accounting profiler on.
fn profile_mode(w: usize, l: usize, d: usize) {
    println!("== Table I --profile: measured stall breakdown vs Table II dominant regime ==\n");

    let (n, p) = (1usize << 14, 2048usize);
    let input = random_words(n, n as u64 ^ p as u64, 100);
    let mut hmm = hmm_all::footprint(n, p, d).hmm(d, w, l);
    hmm.set_profiling(true);
    let run = run_sum_hmm(&mut hmm, &input, p).expect("hmm sum");
    print_profiles(
        &format!("sum/hmm n={n} p={p}"),
        run.report.time,
        &table2::sum_hmm(params(n, 1, p, w, l, d)),
        &hmm.take_profiles(),
    );

    let (n, k, p) = (1usize << 12, 32usize, 2048usize);
    let a = random_words(k, k as u64, 50);
    let b = random_words(n + k - 1, n as u64, 50);
    let mut hmm = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
    hmm.set_profiling(true);
    let run = run_conv_hmm(&mut hmm, &a, &b, p).expect("hmm conv");
    print_profiles(
        &format!("conv/hmm n={n} k={k} p={p}"),
        run.report.time,
        &table2::conv_hmm(params(n, k, p, w, l, d)),
        &hmm.take_profiles(),
    );
}

fn main() {
    let w = 32;
    let d = 16; // GTX580 shape
    let l = 256;
    if std::env::args().any(|a| a == "--profile") {
        profile_mode(w, l, d);
        return;
    }
    let runner = BatchRunner::new();

    println!("== Table I (sum row) ==");
    println!(
        "machine: w = {w}, l = {l}, d = {d} (HMM)  |  time in simulated units  |  {} batch threads\n",
        runner.threads()
    );
    header(&[
        "n", "p", "seq", "pram", "pram^", "dmm/umm", "d/u^", "hmm", "hmm^",
    ]);

    let mut sum_points = Vec::new();
    for &n in &[1usize << 12, 1 << 14, 1 << 16] {
        for &p in &[512usize, 2048, 8192] {
            sum_points.push((n, p));
        }
    }
    let mut sum_ms: Vec<Measurement> = Vec::new();
    for (cells, ms) in runner.run(sum_points, |(n, p)| sum_point(n, p, w, l, d)) {
        row(&cells);
        sum_ms.extend(ms);
    }
    println!();
    for name in ["table1/sum/pram", "table1/sum/dmm_umm", "table1/sum/hmm"] {
        let ms: Vec<_> = sum_ms
            .iter()
            .filter(|m| m.experiment == name)
            .cloned()
            .collect();
        summarise(name, &ms);
    }

    println!("\n== Table I (direct convolution row) ==");
    println!("columns marked ^ are the Theta-shape predictions (unit constants)\n");
    header(&[
        "n", "k", "p", "seq", "pram", "pram^", "dmm/umm", "d/u^", "hmm", "hmm^",
    ]);
    let mut conv_points = Vec::new();
    for &(n, k) in &[(1usize << 12, 16usize), (1 << 12, 64), (1 << 14, 32)] {
        for &p in &[1024usize, 4096] {
            conv_points.push((n, k, p));
        }
    }
    let mut conv_ms: Vec<Measurement> = Vec::new();
    for (cells, ms) in runner.run(conv_points, |(n, k, p)| conv_point(n, k, p, w, l, d)) {
        row(&cells);
        conv_ms.extend(ms);
    }
    println!();
    for name in ["table1/conv/pram", "table1/conv/dmm_umm", "table1/conv/hmm"] {
        let ms: Vec<_> = conv_ms
            .iter()
            .filter(|m| m.experiment == name)
            .cloned()
            .collect();
        summarise(name, &ms);
    }

    let mut all = sum_ms;
    all.extend(conv_ms);
    dump("table1", &all);
}
